package rt

import (
	"errors"
	"testing"
	"time"
)

// Service.Calls is derived from the sync completion counter: every
// admitted sync call bumps syncDone once wherever it completes (the
// held path, the pooled path, the deadline executor), and the denied
// and faulted exits of dispatch bump syncFail. This test drives every
// sync path and every exit kind next to async traffic of the same kinds
// and checks the derivation counts exactly the successful sync calls,
// never an async one, and that the in-flight count a soft Kill drains
// on still reaches zero.
func TestCallsCountsSuccessfulSyncCalls(t *testing.T) {
	sys := NewSystemShards(2)
	defer sys.Close()

	const (
		modeOK          = iota
		modePanic       // handler fault
		modeBlock       // block until release, then succeed
		modeNestedOK    // nested Ctx.Call into inner that succeeds
		modeNestedFault // nested Ctx.Call into inner that faults; outer succeeds
	)
	release := make(chan struct{})
	entered := make(chan struct{}, 2) // one per blocking call below
	var inner *Service
	handler := func(ctx *Ctx, args *Args) {
		switch args[0] {
		case modePanic:
			panic("calls: injected fault")
		case modeBlock:
			entered <- struct{}{}
			<-release
		case modeNestedOK, modeNestedFault:
			var nested Args
			if args[0] == modeNestedFault {
				nested[0] = modePanic
			}
			if err := ctx.Call(inner.EP(), &nested); (err != nil) != (args[0] == modeNestedFault) {
				t.Errorf("nested call mode %d: err = %v", args[0], err)
			}
		}
	}
	var err error
	if inner, err = sys.Bind(ServiceConfig{Name: "calls-inner", Handler: handler}); err != nil {
		t.Fatal(err)
	}
	bad := sys.NewClientOnShard(0)
	defer bad.Release()
	outer, err := sys.Bind(ServiceConfig{
		Name:      "calls-outer",
		Handler:   handler,
		Authorize: func(p uint32) bool { return p != bad.Program() },
	})
	if err != nil {
		t.Fatal(err)
	}

	var wantOuter, wantInner int64
	call := func(what string, fn func(EntryPointID, *Args) error, mode uint64, wantErr error) {
		t.Helper()
		var args Args
		args[0] = mode
		err := fn(outer.EP(), &args)
		if wantErr == nil && err != nil || wantErr != nil && !errors.Is(err, wantErr) {
			t.Fatalf("%s mode %d: err = %v, want %v", what, mode, err, wantErr)
		}
	}
	done := make(chan struct{}, 1)
	async := func(c *Client, mode uint64) {
		t.Helper()
		var args Args
		args[0] = mode
		if err := c.AsyncCallNotify(outer.EP(), &args, done); err != nil {
			t.Fatalf("async mode %d: %v", mode, err)
		}
		<-done
	}
	deadline := func(c *Client) func(EntryPointID, *Args) error {
		return func(ep EntryPointID, args *Args) error { return c.CallDeadline(ep, args, time.Second) }
	}

	for shard := 0; shard < 2; shard++ {
		c := sys.NewClientOnShard(shard)
		for i := 0; i < 3; i++ {
			call("held", c.Call, modeOK, nil)
			call("pooled", c.CallPooled, modeOK, nil)
			call("deadline", deadline(c), modeOK, nil)
			wantOuter += 3
		}
		call("held", c.Call, modePanic, ErrServerFault)
		call("pooled", c.CallPooled, modePanic, ErrServerFault)
		call("deadline", deadline(c), modePanic, ErrServerFault)
		call("held nested", c.Call, modeNestedOK, nil)
		call("pooled nested", c.CallPooled, modeNestedFault, nil)
		wantOuter += 2
		wantInner++ // the nested fault is inner's, not counted
		async(c, modeOK)
		async(c, modePanic)
		async(c, modeNestedOK) // the nested sync call counts for inner
		wantInner++
		c.Release()
	}
	call("denied held", bad.Call, modeOK, ErrPermissionDenied)
	call("denied pooled", bad.CallPooled, modeOK, ErrPermissionDenied)
	call("denied deadline", deadline(bad), modeOK, ErrPermissionDenied)
	async(bad, modeOK) // denied on the worker: no error reaches the submitter

	if got := outer.Calls(); got != wantOuter {
		t.Fatalf("outer Calls = %d, want %d successful sync calls", got, wantOuter)
	}
	if got := inner.Calls(); got != wantInner {
		t.Fatalf("inner Calls = %d, want %d successful nested calls", got, wantInner)
	}
	if got := outer.AsyncCalls(); got != 7 {
		t.Fatalf("outer AsyncCalls = %d, want 7", got)
	}
	if got := outer.AuthFailures(); got != 4 {
		t.Fatalf("outer AuthFailures = %d, want 4 (3 sync + 1 async)", got)
	}
	if got := outer.inFlightTotal(); got != 0 {
		t.Fatalf("outer in flight = %d at quiescence, want 0", got)
	}

	// An orphaned deadline call and a blocked async request stay in
	// flight; a soft Kill must wait for both. The orphan's handler
	// returns normally once released, so it counts as a success.
	orphaner := sys.NewClientOnShard(1)
	defer orphaner.Release()
	var oargs Args
	oargs[0] = modeBlock
	if err := orphaner.CallDeadline(outer.EP(), &oargs, 2*time.Millisecond); !errors.Is(err, ErrDeadline) {
		t.Fatalf("orphaned call err = %v, want ErrDeadline", err)
	}
	<-entered
	blocker := sys.NewClientOnShard(0)
	defer blocker.Release()
	var bargs Args
	bargs[0] = modeBlock
	if err := blocker.AsyncCallNotify(outer.EP(), &bargs, done); err != nil {
		t.Fatal(err)
	}
	<-entered
	if got := outer.inFlightTotal(); got != 2 {
		t.Fatalf("outer in flight = %d with an orphan and a blocked async request, want 2", got)
	}
	if got := outer.Calls(); got != wantOuter {
		t.Fatalf("outer Calls = %d while the orphan runs, want %d", got, wantOuter)
	}
	killed := make(chan error, 1)
	go func() { killed <- sys.Kill(outer.EP(), false) }()
	select {
	case err := <-killed:
		t.Fatalf("soft Kill returned (%v) with two calls in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-killed; err != nil {
		t.Fatalf("soft Kill: %v", err)
	}
	<-done
	if got := outer.inFlightTotal(); got != 0 {
		t.Fatalf("outer in flight = %d after soft Kill returned, want 0", got)
	}
	wantOuter++ // the orphan returned normally
	if got := outer.Calls(); got != wantOuter {
		t.Fatalf("outer Calls = %d after the drain, want %d", got, wantOuter)
	}
	if got := outer.AsyncCalls(); got != 8 {
		t.Fatalf("outer AsyncCalls = %d after the drain, want 8", got)
	}
}
