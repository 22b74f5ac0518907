package sim

import (
	"fmt"
	"testing"
)

// Edge-of-contract tests for Resource and Signal: handoff vs
// TryAcquire, waiter-queue wraparound, zero-capacity construction,
// zero-duration Use, Signal re-wait behavior, and FireOne's wake-one
// hand-off.

// A Release with queued waiters hands the unit directly to the head
// waiter — a TryAcquire racing at the same instant, after the release
// but before the waiter resumes, must not steal it.
func TestTryAcquireCannotJumpHandoff(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("r", 1)
	var stole bool
	var order []string
	e.Go("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(100)
		r.Release() // hands off to "waiter" queued at t=50
	})
	e.GoAt(50, "waiter", func(p *Proc) {
		r.Acquire(p)
		order = append(order, "waiter")
		p.Sleep(50)
		r.Release()
	})
	// Scheduled after "holder" at the same instant, so this runs after
	// the release and before the waiter's resume event.
	e.GoAt(100, "trier", func(p *Proc) {
		if r.TryAcquire() {
			stole = true
			r.Release()
		}
		p.Sleep(100) // t=200: waiter released at 150, resource idle
		if !r.TryAcquire() {
			t.Error("TryAcquire failed on an idle resource")
			return
		}
		order = append(order, "trier")
		r.Release()
	})
	e.Run()
	if stole {
		t.Error("TryAcquire stole a unit reserved for a queued waiter")
	}
	if len(order) != 2 || order[0] != "waiter" || order[1] != "trier" {
		t.Errorf("service order = %v, want [waiter trier]", order)
	}
}

// Appending new waiters while the head cursor is mid-slice, draining
// across the reset point, must keep strict FIFO order and leave the
// queue fully compacted when it empties.
func TestResourceWaiterQueueWraparound(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("r", 1)
	var order []int
	e.Go("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(100)
		r.Release()
	})
	use := func(id int) func(*Proc) {
		return func(p *Proc) {
			r.Acquire(p)
			order = append(order, id)
			p.Sleep(10)
			r.Release()
		}
	}
	// 1..3 queue while the holder runs; 4 and 5 arrive after handoffs
	// have advanced the head cursor but before the queue drains.
	for i := 1; i <= 3; i++ {
		e.GoAt(Time(10*i), "w", use(i))
	}
	e.GoAt(105, "w", use(4)) // head=1 (serving 1), len=3
	e.GoAt(118, "w", use(5)) // head=2 (serving 2), len=4
	e.Run()
	want := []int{1, 2, 3, 4, 5}
	if len(order) != len(want) {
		t.Fatalf("served %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order = %v, want %v (FIFO across wraparound)", order, want)
		}
	}
	if r.waiters.head != 0 || len(r.waiters.procs) != 0 {
		t.Errorf("drained queue not reset: head=%d len=%d", r.waiters.head, len(r.waiters.procs))
	}
	if r.QueueLen() != 0 || r.InUse() != 0 {
		t.Errorf("resource not idle: queue=%d inUse=%d", r.QueueLen(), r.InUse())
	}
}

// Capacity below one is a construction error, not a quietly-useless
// resource.
func TestZeroCapacityResourcePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewResource(0) did not panic")
		}
	}()
	NewEnv().NewResource("r", 0)
}

// Use with a zero duration still round-trips Acquire/Release and
// reports pure queueing delay.
func TestZeroDurationUse(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("r", 1)
	var free, contended Duration
	e.Go("holder", func(p *Proc) {
		free = r.Use(p, 0) // idle resource: total time 0
		r.Acquire(p)
		p.Sleep(100)
		r.Release()
	})
	e.GoAt(40, "queued", func(p *Proc) {
		contended = r.Use(p, 0) // waits t=40..100, then holds for 0
	})
	e.Run()
	if free != 0 {
		t.Errorf("zero-duration Use on idle resource took %v, want 0", free)
	}
	if contended != 60 {
		t.Errorf("zero-duration Use under contention took %v, want 60 (pure queueing)", contended)
	}
	if r.InUse() != 0 {
		t.Errorf("resource still held after Use: inUse=%d", r.InUse())
	}
	if _, waited, waitTotal, _ := r.Stats(); waited != 1 || waitTotal != 60 {
		t.Errorf("stats: waited=%d waitTotal=%v, want 1/60", waited, waitTotal)
	}
}

// A waiter that re-Waits from inside the wakeup of a Fire must not see
// the same fire twice, and the reused waiter array must not leak old
// waiters into the next Fire.
func TestSignalReWaitNeedsNextFire(t *testing.T) {
	e := NewEnv()
	s := e.NewSignal("s")
	var wakes int
	e.Go("waiter", func(p *Proc) {
		s.Wait(p)
		wakes++
		s.Wait(p) // re-registered after the fire: needs a second Fire
		wakes++
	})
	e.GoAt(10, "firer", func(p *Proc) {
		s.Fire()
		p.Sleep(10)
		if s.Waiters() != 1 {
			t.Errorf("re-waiting proc not registered: waiters=%d", s.Waiters())
		}
		s.Fire()
		p.Sleep(10)
		s.Fire() // no waiters: must be a no-op, not a double-wake
	})
	e.Run()
	if wakes != 2 {
		t.Errorf("waiter woke %d times, want 2", wakes)
	}
	if s.Fires() != 3 {
		t.Errorf("fires=%d, want 3", s.Fires())
	}
	if s.Waiters() != 0 {
		t.Errorf("stale waiters after final fire: %d", s.Waiters())
	}
}

// fireOneRig parks n daemon waiters on s, in id order at t=1..n. Each
// records its id at every wakeup and re-waits.
func fireOneRig(e *Env, s *Signal, n int, woke *[]int) {
	for id := 1; id <= n; id++ {
		id := id
		e.GoDaemon("waiter", func(p *Proc) {
			p.Sleep(Duration(id))
			for {
				s.Wait(p)
				*woke = append(*woke, id)
			}
		})
	}
}

// FireOne wakes waiters one per call, longest-waiting first, and a
// woken waiter that re-waits goes to the back of the line.
func TestSignalFireOneFIFO(t *testing.T) {
	e := NewEnv()
	s := e.NewSignal("s")
	var woke []int
	fireOneRig(e, s, 3, &woke)
	var waiters []int
	e.GoAt(10, "firer", func(p *Proc) {
		for i := 0; i < 6; i++ {
			before := len(woke)
			s.FireOne()
			p.Sleep(10)
			if got := len(woke) - before; got != 1 {
				t.Errorf("FireOne #%d resumed %d waiters, want 1", i, got)
			}
			waiters = append(waiters, s.Waiters())
		}
	})
	e.Run()
	want := []int{1, 2, 3, 1, 2, 3}
	if fmt.Sprint(woke) != fmt.Sprint(want) {
		t.Errorf("wake order = %v, want %v", woke, want)
	}
	for i, n := range waiters {
		if n != 3 {
			t.Errorf("after FireOne #%d: %d waiters parked, want 3 (woken one re-waits)", i, n)
		}
	}
	if s.Fires() != 6 {
		t.Errorf("fires=%d, want 6", s.Fires())
	}
}

// With nobody parked, FireOne wakes nothing and is not remembered for a
// later waiter — but it still counts as a fire.
func TestSignalFireOneNoWaiters(t *testing.T) {
	e := NewEnv()
	s := e.NewSignal("s")
	woke := false
	e.Go("firer", func(p *Proc) {
		s.FireOne()
		s.FireOne()
		p.Sleep(10)
		s.FireOne()
	})
	e.GoAt(5, "late", func(p *Proc) {
		s.Wait(p)
		woke = true
	})
	e.Run()
	if !woke {
		t.Error("waiter parked after two idle FireOnes was not woken by the third")
	}
	if s.Fires() != 3 {
		t.Errorf("fires=%d, want 3 (idle FireOne still counts)", s.Fires())
	}
}

// FireOne and Fire share one queue: Fire wakes everyone still parked in
// the order they parked, including waiters requeued behind earlier
// FireOne hand-offs.
func TestSignalFireOneInterleavesWithFire(t *testing.T) {
	e := NewEnv()
	s := e.NewSignal("s")
	var woke []int
	fireOneRig(e, s, 3, &woke)
	e.GoAt(10, "firer", func(p *Proc) {
		s.FireOne() // 1; queue 2 3 1
		p.Sleep(10)
		s.FireOne() // 2; queue 3 1 2
		p.Sleep(10)
		s.Fire() // 3 1 2; queue 3 1 2
		p.Sleep(10)
		s.FireOne() // 3
		s.FireOne() // 1, at the same instant
		p.Sleep(10)
		s.Fire() // 2 3 1
	})
	e.Run()
	want := []int{1, 2, 3, 1, 2, 3, 1, 2, 3, 1}
	if fmt.Sprint(woke) != fmt.Sprint(want) {
		t.Errorf("wake order = %v, want %v", woke, want)
	}
	if s.Fires() != 6 {
		t.Errorf("fires=%d, want 6", s.Fires())
	}
}

// Waiters FireOne never reached are still parked when the environment
// shuts down, and Shutdown unwinds them (their defers run).
func TestSignalFireOneShutdownUnwindsParked(t *testing.T) {
	e := NewEnv()
	s := e.NewSignal("s")
	var unwound, woke int
	for i := 0; i < 4; i++ {
		e.GoDaemon("waiter", func(p *Proc) {
			defer func() { unwound++ }()
			s.Wait(p)
			woke++
			p.Sleep(Second) // then exits; its defer counts it too
		})
	}
	e.GoAt(10, "firer", func(p *Proc) { s.FireOne() })
	e.Run()
	if woke != 1 || unwound != 1 {
		t.Fatalf("before shutdown: woke=%d exited=%d, want 1/1", woke, unwound)
	}
	if s.Waiters() != 3 {
		t.Fatalf("waiters=%d before shutdown, want 3", s.Waiters())
	}
	e.Shutdown()
	if unwound != 4 {
		t.Errorf("unwound=%d after Shutdown, want 4 (1 exited + 3 parked)", unwound)
	}
}

// Steady-state FireOne hand-offs — including a queue that never fully
// drains, so its consumed prefix must be compacted — do not allocate.
func TestSignalFireOneAllocationFree(t *testing.T) {
	e := NewEnv()
	s := e.NewSignal("s")
	for i := 0; i < 8; i++ {
		e.GoDaemon("waiter", func(p *Proc) {
			for {
				s.Wait(p)
			}
		})
	}
	fire := func(p *Proc) {
		for i := 0; i < 64; i++ {
			s.FireOne()
			p.Sleep(1)
		}
	}
	e.Go("warm", fire)
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		e.Go("firer", fire)
		e.Run()
	})
	if allocs > 0.1 {
		t.Fatalf("steady-state FireOne allocates %.2f allocs/run, want ~0", allocs)
	}
	if s.Waiters() != 8 {
		t.Errorf("waiters=%d, want 8", s.Waiters())
	}
	if n := len(s.waiters.procs); n > 16 {
		t.Errorf("waiter queue grew to %d slots for 8 waiters; consumed prefix not reclaimed", n)
	}
}
