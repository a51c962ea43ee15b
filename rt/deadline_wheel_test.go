package rt

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// Regression and race coverage for the timer-wheel deadline path: the
// two cancellation-path bugfixes (dead-on-arrival ctx, health-gate
// pollution) and the wheel-specific interleavings (orphan vs tick vs
// Release, Close with armed nodes, ticket reuse across re-arm).

// A ctx that is already cancelled (no deadline involved) must fail
// before admission: no handler run, no descriptor held, no executor
// armed, no expiry counted.
func TestCallContextDeadCtxNeverAdmits(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "deadctx", Handler: func(ctx *Ctx, args *Args) {
		t.Error("handler must not run for an already-cancelled context")
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClient()
	defer c.Release()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var args Args
	err = c.CallContext(ctx, svc.EP(), &args)
	if !errors.Is(err, ErrDeadline) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrDeadline wrapping context.Canceled", err)
	}
	if svc.Calls() != 0 {
		t.Fatalf("Calls = %d, want 0", svc.Calls())
	}
	if c.dl != nil {
		t.Fatal("dead-on-arrival ctx armed the executor")
	}
	st := sys.Stats()[0]
	if st.HeldCDs != 0 || st.QuarantinedCDs != 0 || st.DeadlineExpirations != 0 {
		t.Fatalf("dead-on-arrival ctx left side effects: %+v", st)
	}
}

// Caller cancellation is not evidence that the service is sick: any
// number of prompt ctx cancellations must leave the health gate alone,
// while true expiries still trip it, and a cancelled call that carried
// the half-open probe settles the gate back to degraded (no recovery,
// no leak) so a later clean probe can close it.
func TestCallContextCancelNoHealthEvidence(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	block := make(chan struct{})
	entered := make(chan struct{}, 16)
	svc, err := sys.Bind(ServiceConfig{
		Name: "cancelgate",
		Handler: func(ctx *Ctx, args *Args) {
			if args[0] == 1 {
				entered <- struct{}{}
				<-block
			}
		},
		Health: &HealthConfig{MaxConsecutiveTimeouts: 2, ProbeAfter: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer close(block)
	c := sys.NewClientOnShard(0)
	var bad Args
	bad[0] = 1
	// Twice the trip threshold in prompt cancellations: no gate movement.
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			<-entered
			cancel()
		}()
		a := bad
		if err := c.CallContext(ctx, svc.EP(), &a); !errors.Is(err, ErrDeadline) || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancellation %d: %v", i, err)
		}
	}
	if svc.HealthTrips() != 0 || !svc.Healthy() {
		t.Fatalf("cancellations polluted the gate: trips=%d healthy=%v", svc.HealthTrips(), svc.Healthy())
	}
	// True expiries still count: two trip it.
	for i := 0; i < 2; i++ {
		a := bad
		if err := c.CallDeadline(svc.EP(), &a, time.Millisecond); !errors.Is(err, ErrDeadline) {
			t.Fatalf("expiry %d: %v", i, err)
		}
	}
	// The expired calls' handlers signal entered too. Take both tokens,
	// so the probe leg's canceller below waits for the probe's own
	// handler: a stale token would cancel the probe before admission, and
	// the call would never carry the probe at all.
	for i := 0; i < 2; i++ {
		<-entered
	}
	var good Args
	if err := c.Call(svc.EP(), &good); !errors.Is(err, ErrServiceUnhealthy) {
		t.Fatalf("after timeout run: %v, want shed", err)
	}
	if svc.HealthTrips() != 1 {
		t.Fatalf("HealthTrips = %d", svc.HealthTrips())
	}
	// A cancelled half-open probe: no recovery, but the gate settles back
	// to degraded instead of leaking the probe lease.
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-entered
		cancel()
	}()
	a := bad
	if err := c.CallContext(ctx, svc.EP(), &a); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled probe: %v", err)
	}
	if svc.Healthy() || svc.HealthRecovers() != 0 {
		t.Fatal("cancelled probe must not close the gate")
	}
	if err := c.Call(svc.EP(), &good); !errors.Is(err, ErrServiceUnhealthy) {
		t.Fatalf("inside restarted window: %v, want shed (gate must not be stuck half-open)", err)
	}
	// After the restarted window a clean probe recovers.
	time.Sleep(10 * time.Millisecond)
	waitCond(t, time.Second, "clean probe recovery", func() bool {
		return c.Call(svc.EP(), &good) == nil
	})
	if !svc.Healthy() {
		t.Fatal("gate never closed after the cancelled probe settled")
	}
}

// Orphaning, the wheel tick, and Release race freely: concurrent
// clients alternate completing calls (Release abandons a still-filed
// node while its bucket may be mid-scan) and orphaning them (abandon
// from the orphaned branch races the tick that fired it). Run with
// -race; afterwards every quarantined descriptor reclaims and every
// wheel node retires.
func TestWheelOrphanTickReleaseRace(t *testing.T) {
	sys := NewSystemOptions(Options{
		Shards:                   1,
		DeadlineWheelGranularity: 100 * time.Microsecond,
	})
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "race", Handler: func(ctx *Ctx, args *Args) {
		if args[0] == 1 {
			time.Sleep(time.Millisecond)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c := sys.NewClientOnShard(0)
				var args Args
				args[0] = uint64((g + i) % 2) // even: instant, odd: outlives the deadline
				err := c.CallDeadline(svc.EP(), &args, 300*time.Microsecond)
				if err != nil && !errors.Is(err, ErrDeadline) {
					t.Errorf("goroutine %d call %d: %v", g, i, err)
					return
				}
				c.Release()
			}
		}(g)
	}
	wg.Wait()
	waitCond(t, 5*time.Second, "quarantine drained", func() bool {
		return sys.Stats()[0].QuarantinedCDs == 0
	})
	waitCond(t, 5*time.Second, "wheel drained", func() bool {
		return sys.shards[0].wheel.registered.Load() == 0
	})
}

// Close with nodes still in the wheel: an idle armed client and an
// orphaned in-flight call must not deadlock Close, and the watchdog
// must keep ticking past Close until the last node retires, then exit.
func TestCloseDrainsArmedWheel(t *testing.T) {
	sys := NewSystemOptions(Options{
		Shards:                   1,
		DeadlineWheelGranularity: 200 * time.Microsecond,
	})
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	wedge, err := sys.Bind(ServiceConfig{Name: "wedge", Handler: func(ctx *Ctx, args *Args) {
		entered <- struct{}{}
		<-block
	}})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := sys.Bind(ServiceConfig{Name: "fast", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	// Idle client with a registered wheel node (executor armed by a
	// completed call) that will outlive Close.
	idle := sys.NewClientOnShard(0)
	var args Args
	if err := idle.CallDeadline(fast.EP(), &args, time.Second); err != nil {
		t.Fatal(err)
	}
	// Orphan a call: its handler is still wedged when Close runs. Close
	// joins async workers only — it must not deadlock on the orphan or
	// on the still-ticking watchdog.
	c := sys.NewClientOnShard(0)
	if err := c.CallDeadline(wedge.EP(), &args, time.Millisecond); !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	<-entered
	closed := make(chan struct{})
	go func() {
		sys.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked with an orphaned handler and armed wheel nodes")
	}
	// The orphan returns after Close: its executor must drop the
	// descriptor (close epoch advanced) and end the quarantine.
	close(block)
	waitCond(t, 5*time.Second, "quarantine drained across Close", func() bool {
		return sys.Stats()[0].QuarantinedCDs == 0
	})
	// The idle client's node is still registered; Release hands it to
	// the still-ticking watchdog, which retires it and exits.
	idle.Release()
	c.Release()
	waitCond(t, 5*time.Second, "wheel drained after Close", func() bool {
		return sys.shards[0].wheel.registered.Load() == 0
	})
	waitCond(t, 5*time.Second, "watchdog exited after draining", func() bool {
		sh := &sys.shards[0]
		sh.qMu.Lock()
		on := sh.watchdogOn
		sh.qMu.Unlock()
		return !on
	})
	// Synchronous calls keep working after Close by contract — a
	// deadline call re-registers a node and restarts the ticker, and a
	// second drain converges again.
	again := sys.NewClientOnShard(0)
	var a2 Args
	if err := again.CallDeadline(fast.EP(), &a2, time.Second); err != nil {
		t.Fatalf("post-close CallDeadline = %v, want success (sync calls survive Close)", err)
	}
	if sys.shards[0].wheel.registered.Load() == 0 {
		t.Fatal("post-close deadline call did not register a wheel node")
	}
	again.Release()
	waitCond(t, 5*time.Second, "second post-close drain", func() bool {
		return sys.shards[0].wheel.registered.Load() == 0
	})
}

// Ticket reuse across re-arm: a call whose completion races its own
// expiry leaves a stale filing in the wheel; the immediately following
// far-deadline call on the same (or replacement) ticket must never be
// spuriously orphaned by that stale entry. This is the generation +
// deadline-revalidation ABA defense under its tightest timing.
func TestDeadlineTicketReuseAcrossRearm(t *testing.T) {
	sys := NewSystemOptions(Options{
		Shards:                   1,
		DeadlineWheelGranularity: 100 * time.Microsecond,
	})
	defer sys.Close()
	racy, err := sys.Bind(ServiceConfig{Name: "racy", Handler: func(ctx *Ctx, args *Args) {
		if args[0] == 1 {
			time.Sleep(300 * time.Microsecond)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := sys.Bind(ServiceConfig{Name: "rfast", Handler: func(ctx *Ctx, args *Args) { args[0] = 7 }})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	defer c.Release()
	for i := 0; i < 150; i++ {
		var args Args
		args[0] = uint64(i % 2) // alternate instant completion and a near-deadline finish
		err := c.CallDeadline(racy.EP(), &args, 300*time.Microsecond)
		if err != nil && !errors.Is(err, ErrDeadline) {
			t.Fatalf("iteration %d racy call: %v", i, err)
		}
		// Immediate far re-arm: the stale near-tick filing from the racy
		// call is still in the wheel and about to be scanned.
		var far Args
		if err := c.CallDeadline(fast.EP(), &far, time.Hour); err != nil {
			t.Fatalf("iteration %d: far re-arm spuriously failed: %v", i, err)
		}
		if far[0] != 7 {
			t.Fatalf("iteration %d: far call result = %d", i, far[0])
		}
	}
	waitCond(t, 5*time.Second, "quarantine drained", func() bool {
		return sys.Stats()[0].QuarantinedCDs == 0
	})
}
