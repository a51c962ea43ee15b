package rt

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// Domain-death protocol unit tests: the packed ownership word, the
// three death modes (Abandon, liveness epochs, the AddCleanup
// backstop), and the scavenger's per-holding reclamation. The storm
// version lives in chaos_test.go (TestChaosDomainDeath); these pin
// each mechanism in isolation.

func TestOwnerWordPacking(t *testing.T) {
	w := packOwner(7, 42, owBusy)
	if ownerGen(w) != 7 {
		t.Fatalf("gen = %d", ownerGen(w))
	}
	if ownerState(w) != owBusy {
		t.Fatalf("state = %d", ownerState(w))
	}
	if !ownerIs(w, 42) || ownerIs(w, 43) {
		t.Fatal("ownerIs mismatch")
	}
	// The id field truncates to 29 bits; ids equal mod 2^29 collide in
	// the word (the gen tag is what keeps a stale CAS from succeeding).
	if !ownerIs(packOwner(0, 1<<ownerIDBits|5, owHeld), 5) {
		t.Fatal("id truncation changed the masked comparison")
	}
	// State and id never bleed into each other or into the gen.
	w = packOwner(0, ^uint32(0), owDead)
	if ownerGen(w) != 0 {
		t.Fatalf("max id leaked into gen: %#x", w)
	}
	if ownerState(w) != owDead {
		t.Fatalf("max id leaked into state: %#x", w)
	}
}

// TestAbandonReclaimsHeldCD: the explicit death mode. Abandon is
// idempotent, the scavenger condemns the held descriptor and
// compensates the pool with a fresh one, and every later call on the
// client fails with ErrClientAbandoned.
func TestAbandonReclaimsHeldCD(t *testing.T) {
	leakCheck(t)
	sys := NewSystemOptions(Options{Shards: 1, WatchdogInterval: time.Millisecond})
	defer sys.Close()
	sh := &sys.shards[0]
	svc, err := sys.Bind(ServiceConfig{Name: "s", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	var args Args
	if err := c.Call(svc.EP(), &args); err != nil {
		t.Fatal(err)
	}
	if !c.Held() || c.Abandoned() {
		t.Fatalf("pre-abandon: held = %v, abandoned = %v", c.Held(), c.Abandoned())
	}
	c.Abandon()
	c.Abandon() // idempotent: the counter must not double
	if !c.Abandoned() {
		t.Fatal("Abandoned() = false after Abandon")
	}
	waitCond(t, 2*time.Second, "CD scavenge", func() bool {
		return sh.heldCDs.Load() == 0 && sh.poolSize() == 1
	})
	st := sys.Stats()[0]
	if st.AbandonedClients != 1 || st.ScavengedCDs != 1 {
		t.Fatalf("death counters: %+v", st)
	}
	if err := c.Call(svc.EP(), &args); !errors.Is(err, ErrClientAbandoned) {
		t.Fatalf("call after abandon: %v", err)
	}
	// The pool was compensated with a fresh descriptor (the condemned
	// one is never repooled — a plain call could have been secretly in
	// flight on it), so a fresh client works and descriptor creation
	// counts exactly one compensation.
	c2 := sys.NewClientOnShard(0)
	if err := c2.Call(svc.EP(), &args); err != nil || sh.cdsCreated.Load() != 2 {
		t.Fatalf("compensation after scavenge: %v, cdsCreated = %d", err, sh.cdsCreated.Load())
	}
	c2.Release()
}

// TestAbandonMidCallTombstones: a call in flight when its client is
// abandoned completes normally and settles itself through the
// tombstone CAS — the completion is never lost and the descriptor is
// reclaimed exactly once.
func TestAbandonMidCallTombstones(t *testing.T) {
	leakCheck(t)
	sys := NewSystemShards(1)
	defer sys.Close()
	sh := &sys.shards[0]
	var c *Client
	svc, err := sys.Bind(ServiceConfig{Name: "t", Handler: func(ctx *Ctx, args *Args) {
		c.Abandon() // the cross-goroutine entry point, used in-goroutine
		args[0] = 77
	}})
	if err != nil {
		t.Fatal(err)
	}
	c = sys.NewClientOnShard(0)
	var args Args
	if err := c.Call(svc.EP(), &args); err != nil || args[0] != 77 {
		t.Fatalf("in-flight call: %v, args[0] = %d (the completion must land)", err, args[0])
	}
	st := sys.Stats()[0]
	if st.TombstonedCompletions != 1 || st.AbandonedClients != 1 {
		t.Fatalf("tombstone counters: %+v", st)
	}
	// The tombstone exit reclaimed the descriptor itself (the scavenger
	// saw nothing left to do).
	if sh.heldCDs.Load() != 0 || sh.poolSize() != 1 {
		t.Fatalf("after tombstone: heldCDs = %d, poolSize = %d", sh.heldCDs.Load(), sh.poolSize())
	}
	if err := c.Call(svc.EP(), &args); !errors.Is(err, ErrClientAbandoned) {
		t.Fatalf("call after mid-call abandon: %v", err)
	}
}

// TestAbandonReclaimsLeases: unattached payload leases — inline slots
// and the spill path both — go back to the arena when the client dies,
// and the payload API fails closed afterwards.
func TestAbandonReclaimsLeases(t *testing.T) {
	leakCheck(t)
	sys := NewSystemOptions(Options{Shards: 1, WatchdogInterval: time.Millisecond})
	defer sys.Close()
	c := sys.NewClientOnShard(0)
	const n = recLeaseSlots + 4 // force the spill path
	for i := 0; i < n; i++ {
		if _, _, err := c.AllocPayload(128); err != nil {
			t.Fatal(err)
		}
	}
	if st := sys.Stats()[0]; st.LeasesActive != n {
		t.Fatalf("LeasesActive = %d, want %d", st.LeasesActive, n)
	}
	c.Abandon()
	waitCond(t, 2*time.Second, "lease scavenge", func() bool {
		return sys.Stats()[0].LeasesActive == 0
	})
	st := sys.Stats()[0]
	if st.ScavengedLeases != n {
		t.Fatalf("ScavengedLeases = %d, want %d", st.ScavengedLeases, n)
	}
	if _, _, err := c.AllocPayload(128); !errors.Is(err, ErrClientAbandoned) {
		t.Fatalf("AllocPayload after scavenge: %v", err)
	}
}

// TestAbandonReclaimsBatch: payload leases staged into an unflushed
// batch are settled by the scavenger, and Flush on the dead client
// fails with ErrClientAbandoned instead of submitting.
func TestAbandonReclaimsBatch(t *testing.T) {
	leakCheck(t)
	sys := NewSystemOptions(Options{Shards: 1, WatchdogInterval: time.Millisecond})
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "b", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	b := c.NewBatch(svc.EP(), 4)
	for i := 0; i < 3; i++ {
		ref, _, err := c.AllocPayload(64)
		if err != nil {
			t.Fatal(err)
		}
		var args Args
		args.AttachPayload(ref)
		b.Add(&args)
	}
	if b.Len() != 3 {
		t.Fatalf("staged %d", b.Len())
	}
	c.Abandon()
	waitCond(t, 2*time.Second, "batch scavenge", func() bool {
		return sys.Stats()[0].LeasesActive == 0
	})
	if st := sys.Stats()[0]; st.ScavengedLeases != 3 {
		t.Fatalf("ScavengedLeases = %d, want 3", st.ScavengedLeases)
	}
	if n, err := b.Flush(); n != 0 || !errors.Is(err, ErrClientAbandoned) {
		t.Fatalf("Flush after scavenge: n = %d, err = %v", n, err)
	}
}

// TestAbandonedBatchAddLeavesLeasesToScavenger: a lease allocated, then
// attached after the client died, is still tracked on the record, so
// the scavenger settles it. An Add on the dead client's batch drops the
// request without releasing the lease a second time — a second release
// would drive the slab's lease count negative.
func TestAbandonedBatchAddLeavesLeasesToScavenger(t *testing.T) {
	leakCheck(t)
	sys := NewSystemOptions(Options{Shards: 1, WatchdogInterval: time.Millisecond})
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "b", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	b := c.NewBatch(svc.EP(), 4)
	ref, _, err := c.AllocPayload(64)
	if err != nil {
		t.Fatal(err)
	}
	c.Abandon()
	waitCond(t, 2*time.Second, "lease scavenge", func() bool {
		return sys.Stats()[0].ScavengedLeases == 1
	})
	var args Args
	args.AttachPayload(ref)
	b.Add(&args)
	if b.Len() != 0 {
		t.Fatalf("dead client's batch staged %d requests", b.Len())
	}
	if st := sys.Stats()[0]; st.LeasesActive != 0 || st.ScavengedLeases != 1 {
		t.Fatalf("LeasesActive = %d, ScavengedLeases = %d, want 0 and 1", st.LeasesActive, st.ScavengedLeases)
	}
}

// TestAbandonRetiresDeadlineExecutor: a client abandoned with a parked
// deadline executor has the executor retired and its wheel node
// unfiled — the wheel's registered count returns to zero, so the
// post-close ticker is not kept alive by a dead client's node.
func TestAbandonRetiresDeadlineExecutor(t *testing.T) {
	leakCheck(t)
	sys := NewSystemOptions(Options{Shards: 1, WatchdogInterval: time.Millisecond})
	defer sys.Close()
	sh := &sys.shards[0]
	svc, err := sys.Bind(ServiceConfig{Name: "d", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	var args Args
	if err := c.CallDeadline(svc.EP(), &args, time.Second); err != nil {
		t.Fatal(err)
	}
	c.Abandon()
	waitCond(t, 2*time.Second, "executor retirement", func() bool {
		return sh.wheel.registered.Load() == 0 && sh.heldCDs.Load() == 0
	})
	if st := sys.Stats()[0]; st.ScavengedCDs != 1 {
		t.Fatalf("ScavengedCDs = %d, want the deadline client's CD", st.ScavengedCDs)
	}
}

// TestDeadlineCallOnScavengedHeldClientArmsNothing: a client that held
// a descriptor and was scavenged before its first deadline call still
// sees that hold from its own side. The call must fail without arming
// an executor: the scavenger has already walked the record, so nothing
// would ever retire the executor or unfile its wheel node.
func TestDeadlineCallOnScavengedHeldClientArmsNothing(t *testing.T) {
	leakCheck(t)
	sys := NewSystemOptions(Options{Shards: 1, WatchdogInterval: time.Millisecond})
	defer sys.Close()
	sh := &sys.shards[0]
	svc, err := sys.Bind(ServiceConfig{Name: "d", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	c.Hold()
	c.Abandon()
	waitCond(t, 2*time.Second, "held-CD scavenge", func() bool {
		return sys.Stats()[0].ScavengedCDs == 1 && sh.reg.dead.Load() == 0
	})
	var args Args
	if err := c.CallDeadline(svc.EP(), &args, time.Second); !errors.Is(err, ErrClientAbandoned) {
		t.Fatalf("deadline call on a scavenged client: %v", err)
	}
	if n := sh.wheel.registered.Load(); n != 0 {
		t.Fatalf("wheel.registered = %d: a dead client armed an executor", n)
	}
}

// TestLivenessEpochDeath: the missed-heartbeat death mode. An enrolled
// client that stops stamping beats for its whole epoch budget is
// declared dead and scavenged; a client that keeps calling is not.
func TestLivenessEpochDeath(t *testing.T) {
	leakCheck(t)
	sys := NewSystemOptions(Options{Shards: 1, WatchdogInterval: time.Millisecond})
	defer sys.Close()
	sh := &sys.shards[0]
	svc, err := sys.Bind(ServiceConfig{Name: "hb", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	beating := sys.NewClientWith(ClientOptions{Shard: 0, LivenessEpochs: 2000})
	idle := sys.NewClientWith(ClientOptions{Shard: 0, LivenessEpochs: 2})
	idle.Hold()
	var args Args
	deadline := time.Now().Add(10 * time.Second)
	for !idle.Abandoned() && time.Now().Before(deadline) {
		if err := beating.Call(svc.EP(), &args); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Microsecond)
	}
	if !idle.Abandoned() {
		t.Fatal("idle enrolled client never declared dead")
	}
	if beating.Abandoned() {
		t.Fatal("beating client declared dead")
	}
	// heldCDs converges to 1: the beating client's hold survives, the
	// idle client's is reclaimed.
	waitCond(t, 2*time.Second, "idle client scavenge", func() bool {
		return sh.heldCDs.Load() == 1 && sys.Stats()[0].ScavengedCDs == 1
	})
	st := sys.Stats()[0]
	if st.AbandonedClients != 1 || st.ScavengedCDs != 1 {
		t.Fatalf("liveness counters: %+v", st)
	}
	beating.Release()
}

// TestCleanupBackstopReclaimsLeak: the GC death mode. A Client that
// leaks (no Release, no Abandon, reference dropped) is declared dead by
// the runtime.AddCleanup backstop and scavenged.
func TestCleanupBackstopReclaimsLeak(t *testing.T) {
	leakCheck(t)
	sys := NewSystemOptions(Options{Shards: 1, WatchdogInterval: time.Millisecond})
	defer sys.Close()
	sh := &sys.shards[0]
	func() {
		c := sys.NewClientOnShard(0)
		c.Hold()
		// c leaks: the hold is never released and the reference dies here.
	}()
	waitCond(t, 10*time.Second, "cleanup-driven reclaim", func() bool {
		runtime.GC()
		return sh.heldCDs.Load() == 0 && sys.Stats()[0].ScavengedCDs == 1
	})
}

// TestCleanupCleanClientUnregisters: a leaked client that holds nothing
// is unregistered quietly — no death declared, no counter moved, no
// record left for the scavenger to walk.
func TestCleanupCleanClientUnregisters(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	reg := sys.shards[0].reg
	func() {
		_ = sys.NewClientOnShard(0)
	}()
	waitCond(t, 10*time.Second, "clean unregister", func() bool {
		runtime.GC()
		reg.mu.Lock()
		n := len(reg.recs)
		reg.mu.Unlock()
		return n == 0
	})
	if got := reg.abandoned.Load(); got != 0 {
		t.Fatalf("clean leak counted as abandoned: %d", got)
	}
}

// TestHoldDeclinesOnDeadClient: Hold on an abandoned client must not
// take a descriptor out of the pool (a dead client acquiring resources
// is how holdings escape the scavenger).
func TestHoldDeclinesOnDeadClient(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	sh := &sys.shards[0]
	c := sys.NewClientOnShard(0)
	c.Abandon()
	c.Hold()
	if c.Held() || sh.heldCDs.Load() != 0 {
		t.Fatalf("dead client acquired a CD: held = %v, heldCDs = %d", c.Held(), sh.heldCDs.Load())
	}
}
