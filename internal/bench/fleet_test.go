package bench

import (
	"bytes"
	"runtime"
	"testing"
)

// TestFleetGate runs the CI smoke fleet (crash + takeover): any
// lost/phantom record, missed failover or determinism divergence
// surfaces as a non-nil error here exactly as it would fail `bench2b
// fleet-smoke`. The full family's gate runs in the fleet row of
// TestExperimentsDeterministic.
func TestFleetGate(t *testing.T) {
	var out bytes.Buffer
	if err := RunFleet(&out, Quick, true); err != nil {
		t.Fatalf("fleet-smoke: %v\n%s", err, out.String())
	}
}

// TestPartitionSpeedupReport checks the -benchjson probe: both runs
// complete, the identity check holds, and the report fields are sane.
func TestPartitionSpeedupReport(t *testing.T) {
	rep, err := PartitionSpeedup(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Identical {
		t.Fatal("partitioned fleet diverged from serial run")
	}
	if rep.Workers != runtime.NumCPU() || rep.Devices != 4 {
		t.Fatalf("got workers=%d devices=%d, want %d/4", rep.Workers, rep.Devices, runtime.NumCPU())
	}
	if rep.Events == 0 || rep.SerialWallNs <= 0 || rep.PartitionedWallNs <= 0 || rep.Speedup <= 0 {
		t.Fatalf("implausible report: %+v", rep)
	}
}
