package bench

import (
	"runtime"
	"sync"
)

// The parallel experiment runner. Every experiment data point builds
// its own sim.Env, so independent points can run on independent host
// cores — the harness exploits the machine's parallelism the way the
// modeled device exploits its channels. Points are indexed, results
// land in index order, and each point's virtual-time arithmetic is
// untouched by where or when it runs, so tables and merged metrics are
// bit-identical to a sequential run (see determinism_test.go).
//
// One package-wide semaphore gates every point, including points of
// experiments that cmd/bench2b runs concurrently, so the process never
// oversubscribes the host no matter how the work is nested.

var (
	jobsMu sync.Mutex
	jobsN  = runtime.NumCPU()
	sem    = make(chan struct{}, runtime.NumCPU())
)

// SetJobs sets the number of experiment points allowed to run
// concurrently (minimum 1). It must not be called while experiments are
// running: slots checked out of the previous semaphore would never
// return to the new one.
func SetJobs(n int) {
	if n < 1 {
		n = 1
	}
	jobsMu.Lock()
	defer jobsMu.Unlock()
	jobsN = n
	sem = make(chan struct{}, n)
}

// Jobs reports the current parallelism degree.
func Jobs() int {
	jobsMu.Lock()
	defer jobsMu.Unlock()
	return jobsN
}

// points computes fn(0..n-1) and returns the results in index order.
// With Jobs() == 1 it runs strictly sequentially on the calling
// goroutine — the exact legacy execution order. Otherwise each point
// runs on its own goroutine gated by the package semaphore; a panicking
// point re-panics on the caller after every worker has finished.
func points[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	jobsMu.Lock()
	j, s := jobsN, sem
	jobsMu.Unlock()
	if j <= 1 || n <= 1 {
		for i := range out {
			out[i] = fn(i)
		}
		return out
	}
	var (
		wg    sync.WaitGroup
		pmu   sync.Mutex
		pval  interface{}
		pseen bool
	)
	for i := range out {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			s <- struct{}{}
			defer func() { <-s }()
			defer func() {
				if r := recover(); r != nil {
					pmu.Lock()
					if !pseen {
						pseen, pval = true, r
					}
					pmu.Unlock()
				}
			}()
			out[i] = fn(i)
		}()
	}
	wg.Wait()
	if pseen {
		panic(pval)
	}
	return out
}
