package bench

import (
	"sync/atomic"
	"testing"
	"time"
)

// points returns results in index order at any -j and point count,
// never runs more points at once than the semaphore allows, and at
// -j 1 calls the points strictly in order.
func TestPointsIndexOrder(t *testing.T) {
	defer SetJobs(Jobs())
	for _, jobs := range []int{1, 8} {
		SetJobs(jobs)
		for _, n := range []int{0, 1, 3, 20} {
			var running, peak, calls atomic.Int64
			var order []int
			out := points(n, func(i int) int {
				r := running.Add(1)
				for p := peak.Load(); r > p && !peak.CompareAndSwap(p, r); p = peak.Load() {
				}
				if jobs == 1 {
					order = append(order, i)
				}
				calls.Add(1)
				time.Sleep(time.Duration(n-i) * 100 * time.Microsecond) // finish out of order
				running.Add(-1)
				return i * i
			})
			if len(out) != n || calls.Load() != int64(n) || peak.Load() > int64(jobs) {
				t.Fatalf("-j %d n %d: %d results from %d calls, %d at once", jobs, n, len(out), calls.Load(), peak.Load())
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
	defer SetJobs(Jobs())
	SetJobs(8)
	var finished atomic.Int64
	defer func() {
		if r := recover(); r != "point 3" {
			t.Fatalf("recovered %v, want the point's panic value", r)
		}
		if f := finished.Load(); f != n-1 {
			t.Fatalf("re-panicked after %d of %d other points finished", f, n-1)
		}
	}()
	points(n, func(i int) int {
		if i == 3 {
			panic("point 3")
		}
		time.Sleep(time.Millisecond)
		finished.Add(1)
		return i
	})
	t.Fatal("points returned despite a panicking point")
}
