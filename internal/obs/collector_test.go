package obs_test

import (
	"sync"
	"testing"

	"twobssd/internal/obs"
	"twobssd/internal/sim"
)

// Collectors whose installs overlap and end out of order each collect
// exactly the environments created while they are installed, and the
// hand-set OnNewSet hook keeps running throughout.
func TestOverlappingCollectors(t *testing.T) {
	prev := obs.OnNewSet
	defer func() { obs.OnNewSet = prev }()
	hooked := 0
	obs.OnNewSet = func(*obs.Set) { hooked++ }

	a, b := obs.NewCollector(false), obs.NewCollector(false)
	a.Install()
	b.Install()
	obs.Of(sim.NewEnv()) // both
	a.Uninstall()
	obs.Of(sim.NewEnv()) // b only
	if na, nb := len(a.Sets()), len(b.Sets()); na != 1 || nb != 2 {
		t.Fatalf("after A uninstalls: A %d sets, B %d; want 1 and 2", na, nb)
	}
	b.Uninstall()
	obs.Of(sim.NewEnv()) // neither
	if na, nb := len(a.Sets()), len(b.Sets()); na != 1 || nb != 2 {
		t.Fatalf("after both uninstall: A %d sets, B %d; want 1 and 2", na, nb)
	}
	a.Uninstall() // a second Uninstall is a no-op
	if hooked != 3 {
		t.Errorf("OnNewSet saw %d sets, want 3", hooked)
	}
}

// Install and Uninstall may run while other goroutines create
// environments (run under -race). A collector installed for the whole
// test sees every environment.
func TestCollectorInstallConcurrentWithOf(t *testing.T) {
	all := obs.NewCollector(false)
	all.Install()
	defer all.Uninstall()
	const workers, envs = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < envs; i++ {
				obs.Of(sim.NewEnv())
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < envs; i++ {
				c := obs.NewCollector(false)
				c.Install()
				c.Uninstall()
			}
		}()
	}
	wg.Wait()
	if n := len(all.Sets()); n != workers*envs {
		t.Fatalf("long-lived collector holds %d sets, want %d", n, workers*envs)
	}
}
