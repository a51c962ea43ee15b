package rt

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// waitCond polls until cond holds or the deadline passes.
func waitCond(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestCallDeadlineCompletes(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "fast", Handler: func(ctx *Ctx, args *Args) {
		args[0]++
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClient()
	defer c.Release()
	var args Args
	args[0] = 41
	if err := c.CallDeadline(svc.EP(), &args, time.Second); err != nil {
		t.Fatal(err)
	}
	if args[0] != 42 {
		t.Fatalf("args[0] = %d, want results copied back", args[0])
	}
	// Reused ticket/executor: a second call works identically.
	if err := c.CallDeadline(svc.EP(), &args, time.Second); err != nil {
		t.Fatal(err)
	}
	if args[0] != 43 {
		t.Fatalf("args[0] = %d after second call", args[0])
	}
	if svc.Calls() != 2 {
		t.Fatalf("Calls = %d", svc.Calls())
	}
}

func TestCallDeadlineZeroIsPlainCall(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "plain", Handler: func(ctx *Ctx, args *Args) {
		args[0] = 7
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClient()
	defer c.Release()
	var args Args
	if err := c.CallDeadline(svc.EP(), &args, 0); err != nil {
		t.Fatal(err)
	}
	if args[0] != 7 {
		t.Fatalf("args[0] = %d", args[0])
	}
	if c.dl != nil {
		t.Fatal("d <= 0 must not arm the executor")
	}
}

func TestCallDeadlineExpiresAndOrphans(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	svc, err := sys.Bind(ServiceConfig{Name: "slow", Handler: func(ctx *Ctx, args *Args) {
		entered <- struct{}{}
		<-block
		args[0] = 99 // must not reach the caller's args
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	var args Args
	errc := make(chan error, 1)
	go func() { errc <- c.CallDeadline(svc.EP(), &args, 2*time.Millisecond) }()
	<-entered
	err = <-errc
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if args[0] != 0 {
		t.Fatalf("orphaned handler wrote through to caller args: %d", args[0])
	}
	st := sys.Stats()[0]
	if st.QuarantinedCDs != 1 {
		t.Fatalf("QuarantinedCDs = %d, want 1 while the orphan runs", st.QuarantinedCDs)
	}
	if st.HeldCDs != 0 {
		t.Fatalf("HeldCDs = %d, want 0 after quarantine", st.HeldCDs)
	}
	if st.DeadlineExpirations != 1 {
		t.Fatalf("DeadlineExpirations = %d", st.DeadlineExpirations)
	}
	// The client transparently re-arms: a fresh call on a fresh CD and
	// executor succeeds while the orphan is still stuck.
	var again Args
	fast, err := sys.Bind(ServiceConfig{Name: "fast2", Handler: func(ctx *Ctx, args *Args) { args[0] = 5 }})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CallDeadline(fast.EP(), &again, time.Second); err != nil {
		t.Fatalf("re-armed client call failed: %v", err)
	}
	if again[0] != 5 {
		t.Fatalf("re-armed call result = %d", again[0])
	}
	// Release the orphan: the executor goroutine (the one that observed
	// handler return) reclaims the quarantined descriptor into the pool.
	close(block)
	waitCond(t, time.Second, "quarantine reclaim", func() bool {
		return sys.Stats()[0].QuarantinedCDs == 0
	})
	c.Release()
	waitCond(t, time.Second, "reclaimed CD repooled", func() bool {
		return sys.Stats()[0].PooledCDs >= 2 // orphaned CD + released CD
	})
}

func TestCallDeadlineOrphanDrainsThroughSoftKill(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	svc, err := sys.Bind(ServiceConfig{Name: "wedge", Handler: func(ctx *Ctx, args *Args) {
		entered <- struct{}{}
		<-block
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	var args Args
	if err := c.CallDeadline(svc.EP(), &args, time.Millisecond); !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v", err)
	}
	<-entered
	// The orphaned handler still counts in flight: a soft kill must wait
	// for it.
	killed := make(chan struct{})
	go func() {
		if err := sys.Kill(svc.EP(), false); err != nil {
			t.Error(err)
		}
		close(killed)
	}()
	select {
	case <-killed:
		t.Fatal("soft kill returned while the orphaned handler was running")
	case <-time.After(10 * time.Millisecond):
	}
	close(block)
	select {
	case <-killed:
	case <-time.After(2 * time.Second):
		t.Fatal("soft kill never finished after the orphan returned")
	}
}

func TestCallContextCancel(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	svc, err := sys.Bind(ServiceConfig{Name: "cslow", Handler: func(ctx *Ctx, args *Args) {
		entered <- struct{}{}
		<-block
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer close(block)
	c := sys.NewClientOnShard(0)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-entered
		cancel()
	}()
	var args Args
	err = c.CallContext(ctx, svc.EP(), &args)
	if !errors.Is(err, ErrDeadline) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrDeadline wrapping context.Canceled", err)
	}
	if sys.Stats()[0].QuarantinedCDs != 1 {
		t.Fatal("cancellation must quarantine exactly like expiry")
	}
}

func TestCallContextPlain(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "cfast", Handler: func(ctx *Ctx, args *Args) { args[0] = 3 }})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClient()
	defer c.Release()
	var args Args
	if err := c.CallContext(context.Background(), svc.EP(), &args); err != nil {
		t.Fatal(err)
	}
	if args[0] != 3 {
		t.Fatalf("args[0] = %d", args[0])
	}
	if c.dl != nil {
		t.Fatal("background context must take the plain Call path")
	}
	dctx, dcancel := context.WithTimeout(context.Background(), time.Second)
	defer dcancel()
	if err := c.CallContext(dctx, svc.EP(), &args); err != nil {
		t.Fatal(err)
	}
}

func TestCallContextAlreadyExpired(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "never", Handler: func(ctx *Ctx, args *Args) {
		t.Error("handler must not run for an already-expired context")
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClient()
	defer c.Release()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	var args Args
	err = c.CallContext(ctx, svc.EP(), &args)
	if !errors.Is(err, ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	_ = svc
}

func TestAsyncCallDeadlineExpiresInQueue(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	var ran int64
	svc, err := sys.Bind(ServiceConfig{Name: "aslow", Handler: func(ctx *Ctx, args *Args) {
		if args[0] == 1 {
			entered <- struct{}{}
			<-block
			return
		}
		ran++
	}})
	if err != nil {
		t.Fatal(err)
	}
	sh := &sys.shards[0]
	sh.maxWorkers = 1 // one worker, and we wedge it
	c := sys.NewClientOnShard(0)
	var wedge Args
	wedge[0] = 1
	if err := c.AsyncCall(svc.EP(), &wedge); err != nil {
		t.Fatal(err)
	}
	<-entered
	// Queue a request with a deadline that expires while the only worker
	// is wedged; deliver its notification to prove expiry still settles.
	done := make(chan struct{}, 1)
	var short Args
	if err := c.AsyncCallNotifyDeadline(svc.EP(), &short, done, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	close(block)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("expired request never delivered its notification")
	}
	waitCond(t, time.Second, "deadline expiration recorded", func() bool {
		return sys.Stats()[0].DeadlineExpirations == 1
	})
	if ran != 0 {
		t.Fatalf("expired request executed (ran = %d)", ran)
	}
	// In-flight accounting is balanced: a soft kill drains immediately.
	if err := sys.Kill(svc.EP(), false); err != nil {
		t.Fatal(err)
	}
}

func TestBatchSetDeadline(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	var ran int64
	svc, err := sys.Bind(ServiceConfig{Name: "bslow", Handler: func(ctx *Ctx, args *Args) {
		if args[0] == 1 {
			entered <- struct{}{}
			<-block
			return
		}
		ran++
	}})
	if err != nil {
		t.Fatal(err)
	}
	sys.shards[0].maxWorkers = 1
	c := sys.NewClientOnShard(0)
	var wedge Args
	wedge[0] = 1
	if err := c.AsyncCall(svc.EP(), &wedge); err != nil {
		t.Fatal(err)
	}
	<-entered
	b := c.NewBatch(svc.EP(), 4)
	b.SetDeadline(time.Millisecond)
	done := make(chan struct{}, 4)
	b.SetNotify(done)
	var args Args
	for i := 0; i < 3; i++ {
		b.Add(&args)
	}
	if n, err := b.Flush(); err != nil || n != 3 {
		t.Fatalf("Flush = %d, %v", n, err)
	}
	time.Sleep(5 * time.Millisecond)
	close(block)
	for i := 0; i < 3; i++ {
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("notification %d never arrived", i)
		}
	}
	if ran != 0 {
		t.Fatalf("expired batch executed %d requests", ran)
	}
	waitCond(t, time.Second, "batch expirations recorded", func() bool {
		return sys.Stats()[0].DeadlineExpirations == 3
	})
}

func TestReleaseRetiresExecutor(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "rfast", Handler: func(ctx *Ctx, args *Args) {}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClient()
	var args Args
	if err := c.CallDeadline(svc.EP(), &args, time.Second); err != nil {
		t.Fatal(err)
	}
	if c.dl == nil {
		t.Fatal("executor not armed")
	}
	c.Release()
	if c.dl != nil {
		t.Fatal("Release must retire the executor")
	}
	// The client stays usable and re-arms on demand.
	if err := c.CallDeadline(svc.EP(), &args, time.Second); err != nil {
		t.Fatal(err)
	}
	c.Release()
}

// TestDeadlineExecutorParksWhenIdle: the executor parks as soon as it
// has settled a call — no spin or yield phase burns the CPU a caller
// needs — and stays parked while the client is idle. The caller's own
// Dekker flag is clear once the call has returned.
func TestDeadlineExecutorParksWhenIdle(t *testing.T) {
	sys := NewSystemShards(1)
	defer sys.Close()
	svc, err := sys.Bind(ServiceConfig{Name: "idle", Handler: func(ctx *Ctx, args *Args) { args[0]++ }})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientOnShard(0)
	defer c.Release()
	var args Args
	for i := 0; i < 200; i++ {
		if err := c.CallDeadline(svc.EP(), &args, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if args[0] != 200 {
		t.Fatalf("args[0] = %d after 200 calls", args[0])
	}
	e := c.dl
	if e.ticket.parked.Load() != 0 {
		t.Fatal("caller's parked flag still set after the call returned")
	}
	waitCond(t, time.Second, "executor park", func() bool { return e.parked.Load() == 1 })
	for i := 0; i < 20; i++ {
		time.Sleep(time.Millisecond)
		if e.parked.Load() != 1 || e.work.Load() != dlWorkNone {
			t.Fatalf("idle executor left its park: parked = %d, work = %d", e.parked.Load(), e.work.Load())
		}
	}
}

// TestDeadlineHandoffNoLostWakeup: every park on either side of the
// handoff is an advertise-then-re-check, so no wake-up is lost however
// the caller, the executor, the wheel and a ctx cancel interleave.
// Clients on their own goroutines mix instant, short-busy and
// past-deadline handlers with ctx-cancelled calls; every call resolves
// within a bound, and the counters settle exactly: Calls() is the
// handler-run count, DeadlineExpirations is the number of ErrDeadline
// returns, QuarantinedCDs drains to zero, and a soft Kill leaves no
// handler running.
func TestDeadlineHandoffNoLostWakeup(t *testing.T) {
	const (
		clients = 4
		calls   = 300
	)
	sys := NewSystemShards(1)
	defer sys.Close()
	var ran, running atomic.Int64
	entered := make([]chan struct{}, clients)
	for i := range entered {
		entered[i] = make(chan struct{}, 1)
	}
	svc, err := sys.Bind(ServiceConfig{Name: "handoff", Handler: func(ctx *Ctx, args *Args) {
		running.Add(1)
		defer running.Add(-1)
		ran.Add(1)
		switch args[0] {
		case 1: // short busy
			for t0 := time.Now(); time.Since(t0) < 20*time.Microsecond; {
			}
		case 2: // past the deadline
			time.Sleep(5 * time.Millisecond)
		case 3: // the caller cancels once the handler has started
			entered[args[1]] <- struct{}{}
			time.Sleep(5 * time.Millisecond)
		}
		args[2] = args[0] + 1
	}})
	if err != nil {
		t.Fatal(err)
	}
	var expired atomic.Int64
	errc := make(chan error, clients)
	for g := 0; g < clients; g++ {
		go func(g int) {
			c := sys.NewClientOnShard(0)
			defer c.Release()
			for i := 0; i < calls; i++ {
				mode := uint64(i % 5)
				if mode == 4 {
					mode = 0 // instant through CallContext: no wheel to rescue a lost wake
				}
				args := Args{mode, uint64(g)}
				start := time.Now()
				var err error
				switch {
				case i%5 == 4:
					ctx, cancel := context.WithCancel(context.Background())
					err = c.CallContext(ctx, svc.EP(), &args)
					cancel()
				case mode == 3:
					ctx, cancel := context.WithCancel(context.Background())
					go func() { <-entered[g]; cancel() }()
					err = c.CallContext(ctx, svc.EP(), &args)
					cancel()
				case mode == 2:
					err = c.CallDeadline(svc.EP(), &args, 200*time.Microsecond)
				default:
					err = c.CallDeadline(svc.EP(), &args, time.Second)
				}
				if el := time.Since(start); el > 500*time.Millisecond {
					errc <- fmt.Errorf("client %d call %d (mode %d) took %v", g, i, mode, el)
					return
				}
				switch {
				case err == nil:
					if args[2] != mode+1 {
						errc <- fmt.Errorf("client %d call %d: result %d, want %d", g, i, args[2], mode+1)
						return
					}
				case errors.Is(err, ErrDeadline) && mode >= 2:
					expired.Add(1)
				default:
					// An instant or short call the wheel had to rescue
					// lost its wake-up.
					errc <- fmt.Errorf("client %d call %d (mode %d): %v", g, i, mode, err)
					return
				}
			}
			errc <- nil
		}(g)
	}
	timeout := time.After(30 * time.Second)
	for g := 0; g < clients; g++ {
		select {
		case err := <-errc:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			t.Fatal("a deadline call never resolved: lost wake-up")
		}
	}
	if expired.Load() == 0 {
		t.Fatal("no call was orphaned: the past-deadline and cancel legs never ran")
	}
	if err := sys.Kill(svc.EP(), false); err != nil {
		t.Fatal(err)
	}
	if n := running.Load(); n != 0 {
		t.Fatalf("soft Kill returned with %d handlers still running", n)
	}
	waitCond(t, 2*time.Second, "quarantine drain", func() bool {
		return sys.Stats()[0].QuarantinedCDs == 0
	})
	st := sys.Stats()[0]
	if got := svc.Calls(); got != ran.Load() || got != clients*calls {
		t.Fatalf("Calls() = %d, handler ran %d times, issued %d", got, ran.Load(), clients*calls)
	}
	if st.DeadlineExpirations != expired.Load() {
		t.Fatalf("DeadlineExpirations = %d, ErrDeadline returns = %d", st.DeadlineExpirations, expired.Load())
	}
	if st.HeldCDs != 0 {
		t.Fatalf("HeldCDs = %d after every client released", st.HeldCDs)
	}
}
