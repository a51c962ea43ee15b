package rt

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
)

// Per-call deadlines and the orphaning protocol.
//
// A plain Call runs the handler on the caller's own goroutine — the
// whole point of the PPC design — which means the caller cannot
// abandon it: Go offers no way to preempt your own stack. CallDeadline
// therefore routes execution through a per-client *executor*
// goroutine: a single, lazily-created, reused goroutine that runs
// handlers on the client's held descriptor while the caller waits on a
// reusable ticket. The warm path allocates nothing — the ticket, its
// wake channel, the executor, and its wheel node all persist on the
// Client.
//
// Timing uses the shard's timer wheel (wheel.go), not per-call timers:
// arming a deadline is one store of an absolute expiry into the
// client's wheel node, and the shard watchdog's tick scans due buckets
// and performs the dlWaiting→dlOrphaned CAS on behalf of expired
// callers. The caller itself parks only on the ticket.
//
// The ticket state word packs a per-executor generation with a phase
// (gen<<2 | waiting/done/orphaned). The generation is what makes the
// watchdog's asynchronous CAS safe: a wheel entry from call N that
// fires while call N+1 is in flight fails its CAS (different gen), and
// the arm path stores the deadline word *before* the state word while
// expire re-validates the deadline *after* reading the state, so a
// stale expiry can never orphan a fresh call.
//
// When the deadline fires first the call is *orphaned*, and the safety
// question becomes: who owns the held descriptor, whose scratch buffer
// the still-running handler may touch at any moment? The protocol:
//
//  1. The watchdog tick (expiry) or the caller (ctx cancellation) CASes
//     the ticket waiting→orphaned. The *caller*, on observing the
//     orphaned phase, quarantines the CD (counted in
//     ShardStats.QuarantinedCDs — it is no longer "held", and it must
//     NOT be repooled while the handler runs), abandons the wheel node,
//     forgets both the descriptor and the executor, acknowledges the
//     bookkeeping on the ticket (ack), and returns ErrDeadline. The
//     client transparently re-arms with a fresh descriptor, executor,
//     and wheel node on its next call.
//  2. A caller-side CAS loss means the executor finished between the
//     expiry firing and the caller reacting; the caller takes the
//     result normally — no orphan, no quarantine.
//  3. The executor, after the handler returns, CASes waiting→done. If
//     IT loses, the call was orphaned while it ran: the executor is
//     the one goroutine that has *observed handler return*, so it —
//     and only it — reclaims the quarantined descriptor into the shard
//     pool (unless the System closed meanwhile; then the descriptor is
//     dropped, same epoch rule as Release) and exits, since the client
//     has already replaced it. It first waits for the caller's ack so
//     the quarantine gauge moves up before the reclaim moves it down
//     and a reclaimed descriptor never repools ahead of the caller's
//     accounting.
//
// The in-flight accounting (admitted / syncDone) brackets the
// *handler*, not the caller's wait: an orphaned handler still counts
// in flight until it returns, so a soft Kill drains orphans too, and
// System.Close's epoch check keeps a late reclaim from repopulating a
// drained pool.
//
// Health evidence: only a true expiry (cause == nil) is recorded as
// timeout evidence — a caller that cancels via ctx is not a sick
// service. A cancelled call that carried the half-open probe still
// settles the gate (back to degraded) so the probe lease is never
// leaked.
//
// Deadline semantics for asynchronous submissions are simpler — a
// queued request has no goroutine to orphan. AsyncCallDeadline stamps
// the request with an absolute expiry; a worker that dequeues it past
// the expiry settles it (accounting, health evidence, notification)
// without running the handler. The dequeue check shares the wheel's
// coarse clock, refreshed once per drained batch. See
// shard.expireAsync.

// Ticket state word layout: gen<<dlGenShift | phase.
const (
	dlPhaseWaiting  uint64 = 1
	dlPhaseDone     uint64 = 2
	dlPhaseOrphaned uint64 = 3
	dlPhaseMask     uint64 = 3
	dlGenShift             = 2
)

// dlCancelled is dlWait's out-of-band return: the cancel channel fired
// while the call was still in the waiting phase. It can never collide
// with a real state word (phase bits 0 are idle-only).
const dlCancelled = ^uint64(0)

// Spin shaping for the caller wait and the executor idle loop. At
// GOMAXPROCS == 1 busy-spinning is pure waste — the counterparty can
// only run if we yield — so the per-round spin is zero and each round
// is a Gosched; on multicore the spin phase resolves a short handler
// without any scheduler transit.
const (
	dlSpinIters   = 64
	dlYieldRounds = 128
)

// Executor work-word values.
const (
	dlWorkNone uint32 = iota
	dlWorkReq
	dlWorkExit
)

// dlTicket is the rendezvous between a deadline caller and its
// executor. Reused across calls; the generation-tagged state CAS is the
// single synchronization point that decides completion vs orphaning.
type dlTicket struct {
	// state is gen<<2|phase; see the file comment for the protocol.
	// The gen|Done CAS is the release edge for the handler's results:
	// the executor writes t.args (via dispatch) and t.err, then CASes,
	// and the caller reads both only after loading a Done state. The
	// orphan-side CASes (expire, cancelAttempt) and the arming store
	// carry no payload and are //ppc:nopublish at the site.
	//
	//ppc:atomic
	//ppc:publishes(args, err)
	state atomic.Uint64
	// parked is the caller's Dekker flag: wakers send a done token only
	// when it is set, so the spin-resolved warm path never touches the
	// channel.
	//
	//ppc:atomic
	parked atomic.Int32
	// ack carries the generation whose orphan bookkeeping the caller has
	// completed; the executor's reclaim waits for it so quarantine
	// accounting is ordered before the repool.
	//
	//ppc:atomic
	ack  atomic.Uint64
	done chan struct{} // buffered(1); a token means "re-check state"
	args Args          // the handler's working copy of the caller's args
	err  error         // written by the executor before the dlDone CAS
}

// wake delivers a (coalescing, non-blocking) token to a parked caller.
// Called by whichever party wins the state CAS, after the CAS — the
// caller re-validates the state on every wakeup, so a stale token from
// a previous call is harmless (drained at the next arm, or treated as
// spurious by the park loop).
//
//ppc:coldpath -- the caller is parked; the scheduler is already involved
func (t *dlTicket) wake() {
	if t.parked.Load() != 0 {
		select {
		case t.done <- struct{}{}:
		default:
		}
	}
}

// expire is the watchdog-side orphaning: CAS this ticket's current
// waiting generation to orphaned, on behalf of a caller whose deadline
// d has passed. The deadline re-validation AFTER the state read is what
// defeats the stale-filing ABA: if the state word belongs to a newer
// call, that call stored its (different) deadline before its state, so
// the re-read cannot still see d.
//
//ppc:coldpath -- runs on the watchdog tick, only for an expired call
func (t *dlTicket) expire(n *dlNode, d int64) {
	s := t.state.Load()
	if s&dlPhaseMask != dlPhaseWaiting {
		return
	}
	if n.deadline.Load() != d {
		return
	}
	//ppc:nopublish -- orphan transition: carries no payload, the caller discards results
	if !t.state.CompareAndSwap(s, s&^dlPhaseMask|dlPhaseOrphaned) {
		return
	}
	t.wake()
}

// dlReq is one unit of work handed to the executor. It lives inline in
// dlExec: the caller writes the fields, then publishes them with the
// work-word store; the executor copies them out after observing the
// store. Strictly SPSC — the atomic work word orders every handoff.
type dlReq struct {
	sys      *System
	svc      *Service
	h        Handler
	counters *shardCounters
	cd       *callDesc
	prog     uint32
	epoch    uint64 // close epoch at descriptor acquisition
	probe    bool   // this call is the health gate's half-open probe
	gen      uint64 // the arming generation (tags the state CASes)
}

// dlExec is the per-client deadline executor: one goroutine, one
// inline request slot, one reusable ticket, one wheel node. No
// channels on the warm handoff — the work word plus a parked-gated
// wake token replace the old request channel, and the wheel replaces
// the per-call timer.
type dlExec struct {
	sh   *shard
	node *dlNode
	// work is the SPSC handoff word: dlWorkNone empty, dlWorkReq a
	// published request (fields in req), dlWorkExit retire. The
	// dlWorkReq store releases req; the consume-side reset and the
	// retire sentinel carry no payload (//ppc:nopublish at the site).
	//
	//ppc:atomic
	//ppc:publishes(req)
	work atomic.Uint32
	// parked is the executor's Dekker flag for its wake channel.
	//
	//ppc:atomic
	parked atomic.Int32
	wake   chan struct{} // buffered(1) executor wakeup
	req    dlReq         // caller-written, work-word-published
	gen    uint64        // caller-private arm counter
	spin   int32         // busy-spin iterations per round (0 at GOMAXPROCS=1)
	ticket dlTicket
}

// armDeadlineExec lazily creates the client's executor (first
// CallDeadline, or the first after an orphaning) and registers its
// wheel node with the shard, which also ensures the watchdog ticker is
// running to drive expiries.
//
//ppc:coldpath -- executor construction, once per client (plus once per orphaning)
func (c *Client) armDeadlineExec() {
	e := &dlExec{sh: c.shard}
	e.wake = make(chan struct{}, 1)
	e.ticket.done = make(chan struct{}, 1)
	if runtime.GOMAXPROCS(0) > 1 {
		e.spin = dlSpinIters
	}
	// The node carries the client's current ownership word (owner.go):
	// gen-tagged, offset-stable, the wheel-node leg of the domain-death
	// layout.
	e.node = &dlNode{t: &e.ticket, owner: c.owHeld}
	c.shard.wheel.registered.Add(1)
	c.shard.ensureWatchdog(c.sys)
	c.dl = e
	// Mirror the executor on the ownership record so the scavenger can
	// retire it (and unfile its wheel node) if the client dies idle.
	c.rec.dl.Store(e)
	go e.loop()
}

// loop runs handlers on behalf of deadline callers until retired
// (Client.Release's exit sentinel) or orphaned.
func (e *dlExec) loop() {
	spun := 0
	for {
		w := e.work.Load()
		if w == dlWorkNone {
			for i := int32(0); i < e.spin; i++ {
				if e.work.Load() != dlWorkNone {
					break
				}
			}
			if w = e.work.Load(); w == dlWorkNone {
				if spun < dlYieldRounds {
					spun++
					runtime.Gosched()
					continue
				}
				// Park: advertise, re-check, block (Dekker handshake with
				// the caller's publish). A stale token wakes us spuriously;
				// the loop just re-checks.
				e.parked.Store(1)
				if e.work.Load() == dlWorkNone {
					<-e.wake
				}
				e.parked.Store(0)
				spun = 0
				continue
			}
		}
		spun = 0
		//ppc:nopublish -- consume-side reset: empties the slot, publishes nothing
		e.work.Store(dlWorkNone)
		if w == dlWorkExit {
			return
		}
		req := e.req // copy out; the caller may rewrite req after this call resolves
		t := &e.ticket
		err := req.sys.dispatch(req.cd, req.svc, req.counters, req.h, &t.args, req.prog, false)
		// Handler done: settle the in-flight accounting exactly as
		// callHeld would — this covers orphaned calls too, which is what
		// lets a soft Kill drain a wedged-then-returned handler.
		req.counters.syncDone.Add(1)
		req.svc.notifyQuiesce()
		t.err = err
		want := req.gen<<dlGenShift | dlPhaseWaiting
		if t.state.CompareAndSwap(want, req.gen<<dlGenShift|dlPhaseDone) {
			// Health evidence only for calls the caller actually saw
			// complete; the caller records timeout evidence on the
			// orphaned branch itself.
			if req.svc.health != nil {
				req.svc.recordOutcome(req.counters, err)
				if req.probe {
					req.svc.settleProbe(req.counters, err)
				}
			}
			t.wake()
			continue
		}
		// Orphaned while running. Wait for the caller to finish the
		// quarantine bookkeeping (it is awake and on its way — the CAS
		// winner woke it), so the gauge increments before this reclaim
		// decrements it and the descriptor never repools early. Then
		// this goroutine — the one that observed handler return — owns
		// the reclaim; the client re-armed long ago, so retire quietly.
		for t.ack.Load() != req.gen {
			runtime.Gosched()
		}
		e.sh.reclaimQuarantined(req.cd, req.sys.closeEpoch.Load() == req.epoch)
		return
	}
}

// retire asks an idle executor to exit (Client.Release; a Client is
// single-goroutine by contract, so no call is in flight) and hands its
// wheel node to the wheel for retirement.
//
//ppc:coldpath -- executor retirement, off every call path
func (e *dlExec) retire() {
	//ppc:nopublish -- exit sentinel: no request fields accompany it
	e.work.Store(dlWorkExit)
	if e.parked.Load() != 0 {
		select {
		case e.wake <- struct{}{}:
		default:
		}
	}
	e.sh.wheel.abandon(e.node, e.sh.clock.read())
}

// reclaimQuarantined ends a descriptor's quarantine after its orphaned
// handler returned. Called only by the executor goroutine that
// observed the return (see docs/INVARIANTS.md: quarantine release).
//
//ppc:coldpath -- orphan cleanup, once per expired call
func (sh *shard) reclaimQuarantined(cd *callDesc, repool bool) {
	sh.quarantinedCDs.Add(-1)
	if repool {
		sh.pushCD(cd)
	}
}

// CallDeadline is Call with an upper bound on how long the caller
// waits. The handler itself is never interrupted — Go cannot preempt a
// running function safely — so an expired call is *orphaned*: the
// caller returns ErrDeadline while the handler runs to completion on
// the executor goroutine, its descriptor quarantined until it does.
// Results of an orphaned call are discarded; args are copied in, so
// the orphan never scribbles on the caller's memory after return.
//
// Expiry is detected by the shard's timer wheel on the watchdog tick:
// a call is settled as expired at most ~2 ticks after d elapses and
// never before (Options.DeadlineWheelGranularity sets the tick).
//
// A d <= 0 means no deadline: identical to Call (including running the
// handler on the caller's goroutine).
//
// The warm path — executor armed, deadline met — performs zero heap
// allocations and arms no timer: the ticket, executor, and wheel node
// are all reused, and arming is one store into the wheel node.
func (c *Client) CallDeadline(ep EntryPointID, args *Args, d time.Duration) error {
	if d <= 0 {
		return c.Call(ep, args)
	}
	return c.callDeadline(ep, args, d, nil, nil)
}

// CallContext is Call honoring ctx's deadline and cancellation. A ctx
// with neither is identical to Call. Expiry and cancellation both
// orphan the in-flight handler exactly as CallDeadline does; the
// returned error wraps ErrDeadline and ctx.Err(). An already-expired
// or already-cancelled ctx fails before admission: the handler never
// runs and no descriptor or executor is touched.
func (c *Client) CallContext(ctx context.Context, ep EntryPointID, args *Args) error {
	if err := ctx.Err(); err != nil {
		// Dead on arrival (cancelled, or deadline already past): reject
		// before admission, with no side effects beyond settling any
		// attached payload leases — the attach transferred them to this
		// call, failed or not.
		c.shard.releaseArgsPayloads(args)
		return fmt.Errorf("%w: %w", ErrDeadline, err)
	}
	var d time.Duration
	if t, ok := ctx.Deadline(); ok {
		d = time.Until(t)
		if d <= 0 {
			c.shard.releaseArgsPayloads(args)
			return fmt.Errorf("%w: %w", ErrDeadline, context.DeadlineExceeded)
		}
	}
	cancel := ctx.Done()
	if d == 0 && cancel == nil {
		return c.Call(ep, args)
	}
	return c.callDeadline(ep, args, d, cancel, ctx)
}

// callDeadline runs one bounded call through the executor. d == 0
// means no expiry (cancellation only); cancel may be nil.
func (c *Client) callDeadline(ep EntryPointID, args *Args, d time.Duration, cancel <-chan struct{}, ctx context.Context) error {
	// Payload ownership transfers to the call before anything can shed
	// it, same ordering as Call (owner.go).
	if err := c.notePayloads(args); err != nil {
		return err
	}
	// Tenant admission next, same as Call: an over-budget caller is
	// shed before any executor or wheel state is touched.
	if c.tenant != 0 {
		if err := c.admitTenant(args); err != nil {
			return err
		}
	}
	// Pre-publish error returns settle attached payload leases, same
	// contract as callHeld.
	if int(ep) >= MaxEntryPoints {
		c.shard.releaseArgsPayloads(args)
		return ErrBadEntryPoint
	}
	sh := c.shard
	e := sh.lookup(ep)
	if e == nil {
		sh.releaseArgsPayloads(args)
		return ErrBadEntryPoint
	}
	svc := e.svc
	if svc.state.Load() != svcActive {
		sh.releaseArgsPayloads(args)
		return ErrKilled
	}
	counters := e.counters
	probe := false
	if svc.health != nil {
		var gerr error
		if probe, gerr = svc.gateAdmit(counters); gerr != nil {
			sh.releaseArgsPayloads(args)
			return gerr
		}
		if probe {
			// Publish the carried probe on the ownership record, same as
			// callHeld: the scavenger settles the gate if the client dies
			// with it.
			c.rec.setProbe(svc, counters)
		}
	}
	if c.held == nil {
		c.Hold()
		if c.held == nil {
			// Hold declined: the client was abandoned.
			if probe {
				c.rec.clearProbe()
				svc.settleProbe(counters, ErrClientAbandoned)
			}
			sh.releaseArgsPayloads(args)
			return ErrClientAbandoned
		}
	}
	if c.dl == nil {
		c.armDeadlineExec()
	}
	// Ownership entry: one life-state load (the same decline the plain
	// path performs), then flip the word held→busy — the deadline path
	// is the one that transitions it, because the descriptor must stay
	// pinned against scavenging while the executor may touch it (the
	// orphan path hands the still-busy descriptor to the executor's
	// quarantine instead of storing it back).
	if c.rec.state.Load() != crLive ||
		!c.held.owner.CompareAndSwap(c.owHeld, c.owBusy) {
		if probe {
			c.rec.clearProbe()
			svc.settleProbe(counters, ErrClientAbandoned)
		}
		return c.ownerLost(args)
	}
	if c.rec.epochs != 0 {
		c.beatTick()
	}
	// Increment-then-check admission, same protocol as callHeld. From
	// here to the executor's syncDone.Add the call is in flight.
	counters.admitted.Add(1)
	if svc.state.Load() != svcActive {
		svc.backOut(counters)
		if probe {
			c.rec.clearProbe()
			svc.settleProbe(counters, ErrKilled)
		}
		sh.releaseArgsPayloads(args)
		c.ownerExit(c.held)
		return ErrKilled
	}
	cd := c.held
	if cap(cd.scratch) < svc.scratchBytes {
		growScratch(cd, svc.scratchBytes)
	}
	cd.scratch = cd.scratch[:svc.scratchBytes]

	exec := c.dl
	t := &exec.ticket
	// Drain a stale wake token a previous call's late waker may have
	// left behind; a token only ever means "re-check the state word".
	select {
	case <-t.done:
	default:
	}
	exec.gen++
	gen := exec.gen
	t.args = *args
	// The ticket's copy owns the attached leases from here: the
	// executor's dispatch settles them after the handler returns — for
	// an orphaned call too, which is exactly the lease-outlives-
	// quarantine invariant (docs/INVARIANTS.md). Strip the caller-side
	// count so the orphan path cannot release a second time.
	transferPayloads(args)
	//ppc:nopublish -- arming store: opens the waiting phase, the Done CAS publishes the results
	t.state.Store(gen<<dlGenShift | dlPhaseWaiting)
	if d > 0 {
		// Arm the wheel BEFORE publishing the work so the bound covers
		// the whole handoff. The expiry rounds up by one granularity
		// from the coarse clock: staleness ≤ one tick, so the wheel
		// never fires before d has elapsed, and at most ~2 ticks after.
		now := sh.clock.read()
		sh.wheel.arm(exec.node, now+int64(d)+sh.wheel.granularity, now)
	}
	exec.req = dlReq{
		sys: c.sys, svc: svc, h: e.h, counters: counters,
		cd: cd, prog: c.program, epoch: c.heldEpoch, probe: probe, gen: gen,
	}
	exec.work.Store(dlWorkReq)
	if exec.parked.Load() != 0 {
		select {
		case exec.wake <- struct{}{}:
		default:
		}
	}
	s := c.dlWait(exec, t, gen, cancel)
	switch {
	case s == dlCancelled:
		return c.cancelAttempt(sh, svc, counters, exec, t, gen, args, probe, ctx.Err())
	case s&dlPhaseMask == dlPhaseDone:
		if d > 0 {
			// Disarm; the wheel unlinks the node lazily at its filed tick.
			exec.node.deadline.Store(0)
		}
		*args = t.args
		// Probe evidence was settled by the executor; drop the record's
		// carried-probe mirror before the ownership exit so the
		// scavenger can never reopen a settled gate.
		if probe {
			c.rec.clearProbe()
		}
		c.ownerExit(cd)
		return t.err
	default:
		// Orphaned by the wheel: a true expiry.
		return c.orphaned(sh, svc, counters, exec, t, gen, probe, nil)
	}
}

// dlWait waits for the call's state word to leave gen|waiting:
// adaptive spin (pure yields at GOMAXPROCS=1, busy-spin rounds on
// multicore), then a parked wait on the ticket's wake token with the
// Dekker handshake against the wakers. Returns the observed state, or
// dlCancelled if the cancel channel fired first.
func (c *Client) dlWait(e *dlExec, t *dlTicket, gen uint64, cancel <-chan struct{}) uint64 {
	want := gen<<dlGenShift | dlPhaseWaiting
	for r := 0; r < dlYieldRounds; r++ {
		for i := int32(0); i <= e.spin; i++ {
			if s := t.state.Load(); s != want {
				return s
			}
		}
		runtime.Gosched()
	}
	for {
		t.parked.Store(1)
		if s := t.state.Load(); s != want {
			t.parked.Store(0)
			return s
		}
		if cancel == nil {
			<-t.done
		} else {
			select {
			case <-t.done:
			case <-cancel:
				t.parked.Store(0)
				return dlCancelled
			}
		}
		t.parked.Store(0)
		if s := t.state.Load(); s != want {
			return s
		}
		// Spurious token (a previous call's late waker); re-park.
	}
}

// cancelAttempt resolves a ctx cancellation observed while waiting: try
// to orphan; if the executor (or the wheel) resolved the call first,
// honor that resolution instead.
//
//ppc:coldpath -- the caller is abandoning the call
func (c *Client) cancelAttempt(sh *shard, svc *Service, counters *shardCounters, e *dlExec, t *dlTicket, gen uint64, args *Args, probe bool, cause error) error {
	want := gen<<dlGenShift | dlPhaseWaiting
	//ppc:nopublish -- orphan transition: the caller is abandoning the call, no payload
	if !t.state.CompareAndSwap(want, gen<<dlGenShift|dlPhaseOrphaned) {
		if s := t.state.Load(); s&dlPhaseMask == dlPhaseDone {
			// Lost to the executor: the call completed.
			e.node.deadline.Store(0)
			*args = t.args
			if probe {
				c.rec.clearProbe()
			}
			c.ownerExit(c.held)
			return t.err
		}
		// Lost to the wheel: expiry and cancellation raced; either
		// resolution is correct, keep the cancellation cause.
	}
	return c.orphaned(sh, svc, counters, e, t, gen, probe, cause)
}

// orphaned performs the caller's side of an orphaning, whoever won the
// CAS (the wheel on expiry, the caller on cancellation): quarantine
// the descriptor, record health evidence (timeout evidence only for a
// true expiry — a cancellation settles a carried probe without
// degrading the gate), abandon the wheel node, replace the executor
// lazily, and acknowledge the bookkeeping so the executor's reclaim
// may proceed.
//
//ppc:coldpath -- a deadline already expired (or the ctx was cancelled); the call is failing
func (c *Client) orphaned(sh *shard, svc *Service, counters *shardCounters, e *dlExec, t *dlTicket, gen uint64, probe bool, cause error) error {
	// The descriptor leaves "held" accounting but must not reach the
	// pool until the executor observes handler return.
	sh.heldCDs.Add(-1)
	sh.quarantinedCDs.Add(1)
	sh.deadlineExpired.Add(1)
	if svc.health != nil {
		if cause == nil {
			svc.recordTimeout(counters)
		} else if probe {
			// A cancelled probe is not evidence either way; settle the
			// gate back to degraded so the probe lease is not leaked.
			svc.settleProbe(counters, cause)
		}
	}
	if probe {
		c.rec.clearProbe()
	}
	sh.wheel.abandon(e.node, sh.clock.read())
	c.held = nil
	c.dl = nil
	// The ownership mirrors forget the quarantined descriptor and the
	// retiring executor: the executor's reclaim protocol owns both from
	// here (the descriptor's word stays owBusy through quarantine — the
	// scavenger never touches it).
	c.rec.cd.Store(nil)
	c.rec.dl.Store(nil)
	t.ack.Store(gen)
	if cause != nil {
		return fmt.Errorf("%w: %w", ErrDeadline, cause)
	}
	return ErrDeadline
}

// AsyncCallDeadline is AsyncCall with a bound on queueing delay: if no
// worker has *started* the request within d of submission, it is
// settled as expired — counted in ShardStats.DeadlineExpirations,
// recorded as timeout evidence for the service's health gate, and
// never executed. A d <= 0 is identical to AsyncCall. The bound covers
// time in the ring only; a handler already started runs to completion.
//
//ppc:hotpath
func (c *Client) AsyncCallDeadline(ep EntryPointID, args *Args, d time.Duration) error {
	if err := c.notePayloads(args); err != nil {
		return err
	}
	if c.tenant != 0 {
		if err := c.admitTenant(args); err != nil {
			return err
		}
	}
	var deadline int64
	if d > 0 {
		deadline = time.Now().Add(d).UnixNano()
	}
	return c.sys.callOn(c.shard, ep, args, c.program, true, nil, deadline, c.lane)
}

// AsyncCallNotifyDeadline is AsyncCallDeadline with a completion
// notification: done receives one token whether the request executed
// or expired (an expired request is settled, not lost).
//
//ppc:hotpath
func (c *Client) AsyncCallNotifyDeadline(ep EntryPointID, args *Args, done chan<- struct{}, d time.Duration) error {
	if err := c.notePayloads(args); err != nil {
		return err
	}
	if c.tenant != 0 {
		if err := c.admitTenant(args); err != nil {
			return err
		}
	}
	var deadline int64
	if d > 0 {
		deadline = time.Now().Add(d).UnixNano()
	}
	return c.sys.callOn(c.shard, ep, args, c.program, true, done, deadline, c.lane)
}
