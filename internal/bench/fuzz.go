// The model-based fuzzing campaign behind `bench2b fuzz`: N seeds of
// randomized dual-path workload replayed against the internal/oracle
// reference model, each on its own fresh sim.Env. Seeds fan out
// through the Runner (so -j applies) and land in seed order, so the
// summary is byte-identical at any parallelism. Any
// divergence is shrunk to a minimal op trace before reporting.
package bench

import (
	"fmt"
	"io"

	"twobssd/internal/oracle"
)

// FuzzReport aggregates one fuzz campaign.
type FuzzReport struct {
	Seeds        int
	Ops          int
	Divergences  []oracle.ShrinkReport
	ScrubRepairs uint64
	EccRetries   uint64
}

// RunFuzz replays seeds 0..n-1 through the oracle, shrinks any
// divergence, writes the summary table to w, and returns an error when
// the stack and the reference model disagreed anywhere.
func RunFuzz(r *Runner, w io.Writer, n int) (*FuzzReport, error) {
	cfg := oracle.Config{}
	results := points(r, n, func(i int) oracle.Result {
		return oracle.Run(uint64(i), cfg)
	})
	rep := &FuzzReport{Seeds: n}
	for _, res := range results {
		rep.Ops += res.Ops
		rep.ScrubRepairs += res.ScrubRepairs
		rep.EccRetries += res.EccRetries
		if res.Divergence != nil {
			sr := oracle.Shrink(res.Seed, cfg, oracle.Generate(res.Seed, cfg))
			if sr.Divergence == nil {
				// The full trace diverged but the re-run did not:
				// itself a determinism bug worth reporting loudly.
				sr.Divergence = res.Divergence
				sr.Ops = nil
			}
			rep.Divergences = append(rep.Divergences, sr)
		}
	}
	if err := rep.WriteText(w); err != nil {
		return rep, err
	}
	if len(rep.Divergences) > 0 {
		return rep, fmt.Errorf("bench: %d of %d fuzz seeds diverged from the reference model", len(rep.Divergences), n)
	}
	return rep, nil
}

// WriteText renders the deterministic campaign summary.
func (r *FuzzReport) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== fuzz: dual-path oracle, %d seeds ==\n", r.Seeds); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-24s %d\n%-24s %d\n%-24s %d\n%-24s %d\n%-24s %d\n",
		"seeds run", r.Seeds,
		"ops executed", r.Ops,
		"divergences", len(r.Divergences),
		"scrub repairs", r.ScrubRepairs,
		"ecc retries", r.EccRetries); err != nil {
		return err
	}
	for _, sr := range r.Divergences {
		if _, err := fmt.Fprintf(w, "DIVERGENCE %v\n", sr.Divergence); err != nil {
			return err
		}
		for i, op := range sr.Ops {
			if _, err := fmt.Fprintf(w, "  op %2d: %v\n", i, op); err != nil {
				return err
			}
		}
		if sr.Flight != nil {
			if err := sr.Flight.WriteText(w); err != nil {
				return err
			}
		}
	}
	return nil
}
