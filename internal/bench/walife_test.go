package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestWalLifeSmoke runs the lifecycle evaluation end to end on a small
// sweep: the feature table renders for both modes and no crash point
// violates the durability contract.
func TestWalLifeSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := RunWalLife(&buf, 8); err != nil {
		t.Fatalf("RunWalLife: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"WAL-LIFE", "commit_1_us", "commits/flush", "recover_us",
		"campaign walseg-ba:", "campaign walseg-sync:", "violations: 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
