package bench

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twobssd/internal/obs"
	"twobssd/internal/sim"
)

// NewRunner clamps the job count to at least one; that effective count
// is what -benchjson records.
func TestRunnerJobsClamp(t *testing.T) {
	for _, c := range []struct{ in, want int }{{-3, 1}, {0, 1}, {1, 1}, {4, 4}} {
		if got := NewRunner(c.in, nil).Jobs(); got != c.want {
			t.Errorf("NewRunner(%d).Jobs() = %d, want %d", c.in, got, c.want)
		}
	}
}

// tracker counts the points running at once and the peak.
type tracker struct{ running, peak atomic.Int64 }

func (k *tracker) enter() {
	r := k.running.Add(1)
	for p := k.peak.Load(); r > p && !k.peak.CompareAndSwap(p, r); p = k.peak.Load() {
	}
}

func (k *tracker) leave() { k.running.Add(-1) }

// points returns results in index order at any -j and point count,
// never runs more points at once than the runner allows, and at -j 1
// calls the points strictly in order.
func TestPointsIndexOrder(t *testing.T) {
	for _, jobs := range []int{1, 8} {
		r := NewRunner(jobs, nil)
		for _, n := range []int{0, 1, 3, 20} {
			var k tracker
			var calls atomic.Int64
			var order []int
			out := points(r, n, func(i int) int {
				k.enter()
				if jobs == 1 {
					order = append(order, i)
				}
				calls.Add(1)
				time.Sleep(time.Duration(n-i) * 100 * time.Microsecond) // finish out of order
				k.leave()
				return i * i
			})
			if len(out) != n || calls.Load() != int64(n) || k.peak.Load() > int64(jobs) {
				t.Fatalf("-j %d n %d: %d results from %d calls, %d at once", jobs, n, len(out), calls.Load(), k.peak.Load())
			}
			for i, v := range out {
				if v != i*i {
					t.Fatalf("-j %d n %d: out[%d] = %d, want %d", jobs, n, i, v, i*i)
				}
			}
			for i, v := range order {
				if v != i {
					t.Fatalf("-j 1 n %d: call order %v, want sequential", n, order)
				}
			}
		}
	}
}

// A panicking point re-panics on the caller with its own value, and
// only after every other point has finished.
func TestPointsPanicWaitsForAll(t *testing.T) {
	const n = 20
	var finished atomic.Int64
	defer func() {
		if r := recover(); r != "point 3" {
			t.Fatalf("recovered %v, want the point's panic value", r)
		}
		if f := finished.Load(); f != n-1 {
			t.Fatalf("re-panicked after %d of %d other points finished", f, n-1)
		}
	}()
	points(NewRunner(8, nil), n, func(i int) int {
		if i == 3 {
			panic("point 3")
		}
		time.Sleep(time.Millisecond)
		finished.Add(1)
		return i
	})
	t.Fatal("points returned despite a panicking point")
}

// Two runners with different job counts run at the same time, each
// within its own bound: no point returns until a 2-job and a 3-job
// runner hold all five slots at once, which a shared semaphore would
// never grant.
func TestRunnersAreIndependent(t *testing.T) {
	var both tracker
	full := make(chan struct{})
	var once sync.Once
	run := func(r *Runner, k *tracker, n int) {
		points(r, n, func(int) struct{} {
			k.enter()
			defer k.leave()
			both.enter()
			defer both.leave()
			if both.running.Load() == 5 {
				once.Do(func() { close(full) })
			}
			select {
			case <-full:
			case <-time.After(10 * time.Second):
				t.Error("runners never held 2+3 slots at once")
			}
			return struct{}{}
		})
	}
	var two, three tracker
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); run(NewRunner(2, nil), &two, 6) }()
	go func() { defer wg.Done(); run(NewRunner(3, nil), &three, 6) }()
	wg.Wait()
	if two.peak.Load() != 2 || three.peak.Load() != 3 {
		t.Fatalf("peaks: 2-job runner %d, 3-job runner %d", two.peak.Load(), three.peak.Load())
	}
}

// Run installs its collector for exactly the run: environments created
// during it are collected, environments created after it are not, and
// obs.OnNewSet is back to the hook that was installed before.
func TestRunScopesCollector(t *testing.T) {
	prev := obs.OnNewSet
	defer func() { obs.OnNewSet = prev }()
	var seen int
	obs.OnNewSet = func(*obs.Set) { seen++ }

	col := obs.NewCollector(false)
	err := NewRunner(2, col).Run(io.Discard, []Experiment{{ID: "env", Run: func(*Runner, io.Writer) error {
		obs.Of(sim.NewEnv())
		return nil
	}}})
	if err != nil {
		t.Fatal(err)
	}
	obs.Of(sim.NewEnv())
	if n := len(col.Sets()); n != 1 {
		t.Errorf("collector holds %d sets, want the 1 created during Run", n)
	}
	if seen != 2 {
		t.Errorf("previous hook saw %d sets, want 2 (chained during Run, restored after)", seen)
	}
}

// Run prints experiments in selection order at any job count, even
// when later ones finish first, and ends a failed experiment's output
// with a FAIL line while the others still run and print.
func TestRunOrderAndFailures(t *testing.T) {
	exp := func(id string, delay time.Duration, err error) Experiment {
		return Experiment{id, func(_ *Runner, w io.Writer) error {
			time.Sleep(delay)
			fmt.Fprintf(w, "%s\n", id)
			return err
		}}
	}
	boom := errors.New("boom")
	exps := []Experiment{exp("a", 20*time.Millisecond, nil), exp("b", 10*time.Millisecond, boom), exp("c", 0, nil)}
	for _, jobs := range []int{1, 3} {
		var out bytes.Buffer
		err := NewRunner(jobs, nil).Run(&out, exps)
		if want := "a\nb\nFAIL: boom\nc\n"; out.String() != want {
			t.Errorf("-j %d: output %q, want %q", jobs, out.String(), want)
		}
		if !errors.Is(err, boom) || !strings.Contains(err.Error(), "b: boom") {
			t.Errorf("-j %d: err = %v, want b's failure", jobs, err)
		}
	}
}
