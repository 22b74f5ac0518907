package bench

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"

	"twobssd/internal/obs"
)

// The experiment runner. Every experiment data point builds its own
// sim.Env, so independent points can run on independent host cores —
// the harness exploits the machine's parallelism the way the modeled
// device exploits its channels. Points are indexed, results land in
// index order, and each point's virtual-time arithmetic is untouched by
// where or when it runs, so tables and merged metrics are bit-identical
// to a sequential run (see determinism_test.go).
//
// A Runner is a value: its job count, semaphore and collector travel
// with it, so the experiments of one run and the points inside them
// share one bound, and two runners in one process never interfere.

// Runner runs experiments and fans their independent points out over
// a fixed number of jobs.
type Runner struct {
	jobs int
	sem  chan struct{}
	col  *obs.Collector
}

// NewRunner returns a runner that runs at most jobs points at once
// (minimum 1). When col is non-nil, Run collects every environment its
// experiments create into col. Collectors see every environment the
// process creates while they are installed, so runs that overlap
// collect each other's environments too.
func NewRunner(jobs int, col *obs.Collector) *Runner {
	if jobs < 1 {
		jobs = 1
	}
	return &Runner{jobs: jobs, sem: make(chan struct{}, jobs), col: col}
}

// Jobs reports the runner's parallelism degree.
func (r *Runner) Jobs() int { return r.jobs }

// Run runs exps with the runner's collector installed for exactly the
// run, and writes their output to w in the order given. At one job, or
// for a single experiment, experiments run in order on the calling
// goroutine and stream to w. Otherwise they run concurrently, each into
// its own buffer, and each buffer is written when its turn comes, so
// output order never depends on scheduling. A failed experiment ends
// its output with a "FAIL: <err>" line; Run returns every experiment
// failure and any error writing w.
func (r *Runner) Run(w io.Writer, exps []Experiment) error {
	if r.col != nil {
		r.col.Install()
		defer r.col.Uninstall()
	}
	errs := make([]error, len(exps))
	run := func(i int, w io.Writer) {
		if err := exps[i].Run(r, w); err != nil {
			fmt.Fprintf(w, "FAIL: %v\n", err)
			errs[i] = fmt.Errorf("%s: %w", exps[i].ID, err)
		}
	}
	if r.jobs == 1 || len(exps) == 1 {
		for i := range exps {
			run(i, w)
		}
		return errors.Join(errs...)
	}
	bufs := make([]bytes.Buffer, len(exps))
	done := make([]chan struct{}, len(exps))
	for i := range exps {
		done[i] = make(chan struct{})
		go func() {
			defer close(done[i])
			run(i, &bufs[i])
		}()
	}
	var werr error
	for i := range exps {
		<-done[i]
		if _, err := w.Write(bufs[i].Bytes()); err != nil && werr == nil {
			werr = err
		}
	}
	return errors.Join(append(errs, werr)...)
}

// points computes fn(0..n-1) and returns the results in index order.
// At one job it runs strictly sequentially on the calling goroutine —
// the exact legacy execution order. Otherwise each point runs on its
// own goroutine gated by the runner's semaphore; a panicking point
// re-panics on the caller after every worker has finished.
func points[T any](r *Runner, n int, fn func(i int) T) []T {
	out := make([]T, n)
	if r.jobs == 1 || n <= 1 {
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
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.sem <- struct{}{}
			defer func() { <-r.sem }()
			defer func() {
				if v := recover(); v != nil {
					pmu.Lock()
					if !pseen {
						pseen, pval = true, v
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
