package rt

// Ctx is the handler execution context — the worker's view of a call.
type Ctx struct {
	sys *System
	svc *Service
	cd  *callDesc

	// CallerProgram is the caller's identity for server-side
	// authorization (§4.1).
	CallerProgram uint32

	async bool

	// pay is the call's captured payload descriptor set (payload.go):
	// snapshotted from the argument words at dispatch, before the
	// handler runs, so Payload views and the settlement release work
	// from an immutable copy the handler cannot scribble over. Plain
	// field — the servicing goroutine is the only toucher.
	pay payloadSet
}

// System returns the owning system.
func (c *Ctx) System() *System { return c.sys }

// Service returns the service being invoked.
func (c *Ctx) Service() *Service { return c.svc }

// IsAsync reports whether no caller is waiting.
func (c *Ctx) IsAsync() bool { return c.async }

// Scratch returns the per-call scratch buffer — the recycled "stack
// page" this call borrowed from the shard pool. Contents do not survive
// the call (the next caller of any service on this shard may get the
// same buffer), exactly like the serially-shared physical stacks of the
// paper; services that need private persistent state keep it elsewhere.
func (c *Ctx) Scratch() []byte { return c.cd.scratch }

// Shard returns the servicing shard index.
func (c *Ctx) Shard() int { return c.cd.shard.id }

// Call makes a nested synchronous call (the server acting as a client)
// on the same shard.
//
//ppc:hotpath
func (c *Ctx) Call(ep EntryPointID, args *Args) error {
	return c.sys.callOn(c.cd.shard, ep, args, c.svc.epProgram(), false, nil, 0, LaneDefault)
}

// Client is a caller bound to one shard. Like a process bound to a
// processor in the paper, a Client is owned by a single goroutine;
// create one per calling goroutine (they are cheap). Sharing a Client
// between goroutines is a data race: the client holds a call
// descriptor across calls (Figure 2's "hold CD"), and that descriptor
// has exactly one serial owner.
type Client struct {
	sys     *System
	shard   *shard
	program uint32

	// lane is the client's criticality class for asynchronous requests
	// (LaneDefault defers to the service's); tenant is its admission
	// identity (0: no tenant, the budget check compiles to one
	// predictable branch). Both immutable after construction
	// (NewClientWith).
	lane   Lane
	tenant TenantID

	// held is the client's held call descriptor: acquired from the
	// shard pool on the first Call (or an explicit Hold) and kept
	// across calls, so the warm path never touches the pool's shared
	// free list. Plain fields — the owning goroutine is the only
	// toucher.
	held *callDesc
	// heldEpoch is the System close epoch observed when held was
	// acquired. Release revalidates it and drops (rather than repools)
	// a stale descriptor, so a held CD can never repopulate a drained
	// shard's pool after System.Close.
	heldEpoch uint64
	// dl is the client's deadline executor (deadline.go): lazily created
	// by the first CallDeadline/CallContext, reused across calls,
	// abandoned (and replaced on demand) when a call is orphaned.
	dl *dlExec

	// rec is the client's ownership record on the shard registry
	// (owner.go) — the scavenger's view of everything this client owns.
	// Set at construction, immutable after.
	rec *clientRec
	// owHeld / owBusy are the precomputed ownership words for the
	// current hold generation (owner.go): the warm Call entry CAS and
	// exit store use them without repacking. Plain fields — rewritten
	// only by Hold on the owning goroutine.
	owHeld, owBusy uint64
	// released marks a client whose held descriptor was explicitly
	// returned to the pool; a second Release in that state is a loud
	// failure (the descriptor may already be serving another client).
	released bool
}

// NewClient creates a caller identity bound to a shard (round-robin
// within this System). The modulo runs in uint64 so the round-robin
// keeps working after the sequence counter wraps (a negative int index
// would panic in NewClientOnShard).
func (s *System) NewClient() *Client {
	return s.NewClientOnShard(int(s.bindSeq.Add(1) % uint64(len(s.shards))))
}

// NewClientOnShard creates a caller bound to an explicit shard.
func (s *System) NewClientOnShard(shardID int) *Client {
	if shardID < 0 || shardID >= len(s.shards) {
		panic("rt: shard out of range")
	}
	c := &Client{
		sys:     s,
		shard:   &s.shards[shardID],
		program: s.programs.Add(1),
	}
	c.rec = c.shard.reg.register(c, 0)
	return c
}

// ClientOptions configures NewClientWith. The zero value matches
// NewClient: round-robin shard, default lane, no tenant.
type ClientOptions struct {
	// Shard binds the client to an explicit shard; negative means
	// round-robin within the System.
	Shard int
	// Lane is the client's criticality class for asynchronous requests
	// (lane.go). LaneDefault defers to the service's configured lane.
	// Ignored unless the System was built with Options.Lanes >= 2.
	Lane Lane
	// Tenant is the client's admission identity (tenant.go): nonzero
	// subjects every call to the tenant's per-shard token bucket once
	// ConfigureTenant has published one. Zero skips admission.
	Tenant TenantID
	// LivenessEpochs opts the client into missed-heartbeat death
	// detection (owner.go): a client that makes no call for more than
	// LivenessEpochs consecutive scavenger epochs (one epoch per
	// watchdog tick) is declared dead and reclaimed, exactly as if
	// Abandon had been called. Zero (the default) disables the check —
	// explicit Abandon and the leaked-client cleanup backstop still
	// apply.
	LivenessEpochs int
}

// NewClientWith creates a caller with an explicit lane and tenant.
func (s *System) NewClientWith(o ClientOptions) *Client {
	shardID := o.Shard
	if shardID < 0 {
		shardID = int(s.bindSeq.Add(1) % uint64(len(s.shards)))
	}
	if shardID >= len(s.shards) {
		panic("rt: shard out of range")
	}
	lane := o.Lane
	if lane > LaneBestEffort {
		lane = LaneBestEffort
	}
	c := &Client{
		sys:     s,
		shard:   &s.shards[shardID],
		program: s.programs.Add(1),
		lane:    lane,
		tenant:  o.Tenant,
	}
	c.rec = c.shard.reg.register(c, o.LivenessEpochs)
	return c
}

// Lane returns the client's criticality class.
func (c *Client) Lane() Lane { return c.lane }

// Tenant returns the client's tenant ID (0: none).
func (c *Client) Tenant() TenantID { return c.tenant }

// admitTenant is the tenant QoS gate, called with c.tenant != 0: one
// table load to find the shard's bucket replica and one fetch-add to
// take a token. An unconfigured tenant admits freely (like a service
// without a health gate); an empty bucket falls to the catch-up slow
// path and then sheds with ErrShed, settling any attached payload
// leases — the same pre-admission contract as every other early
// rejection.
//
//ppc:hotpath
func (c *Client) admitTenant(args *Args) error {
	b := c.shard.tenantBucketFor(c.tenant)
	if b == nil || b.take() {
		return nil
	}
	return c.shard.throttle(b, args)
}

// throttle settles a failed tenant admission: catch-up refill and one
// retry (takeSlow), then the shed.
//
//ppc:coldpath -- the tenant is over budget; the call is already failing
func (sh *shard) throttle(b *tenantBucket, args *Args) error {
	if b.takeSlow(&sh.clock) {
		return nil
	}
	sh.tenantThrottled.Add(1)
	sh.releaseArgsPayloads(args)
	return ErrShed
}

// Program returns the client's program ID.
func (c *Client) Program() uint32 { return c.program }

// Shard returns the client's shard index.
func (c *Client) Shard() int { return c.shard.id }

// Hold pins a call descriptor to the client — Figure 2's "hold CD"
// configuration. The first Call does this implicitly; an explicit Hold
// just front-loads the acquisition (e.g. before a latency-sensitive
// loop). Idempotent. An abandoned client cannot re-acquire: Hold
// declines quietly and the next Call fails with ErrClientAbandoned.
//
//ppc:coldpath -- descriptor acquisition; the warm held path never comes here
func (c *Client) Hold() {
	if c.held != nil {
		return
	}
	rec := c.rec
	// The record gate brackets the mirror publication: once the
	// scavenger holds the gate terminally, no new descriptor can slip
	// past its walk (it would be stranded forever).
	if rec.enter() != nil {
		return
	}
	if rec.state.Load() != crLive {
		rec.leave()
		return
	}
	c.heldEpoch = c.sys.closeEpoch.Load()
	cd := c.shard.holdCD()
	// Stamp the ownership word with a fresh generation and precompute
	// the held/busy words the warm call path transitions between.
	gen := ownerGen(cd.owner.Load()) + 1
	c.owHeld = packOwner(gen, c.program, owHeld)
	c.owBusy = packOwner(gen, c.program, owBusy)
	cd.owner.Store(c.owHeld)
	c.released = false
	rec.heldEpoch.Store(c.heldEpoch)
	rec.cd.Store(cd)
	rec.leave()
	c.held = cd
}

// Release returns the held call descriptor to the shard pool; the next
// Call re-acquires one. If the System was closed while the descriptor
// was held (the close epoch advanced), the descriptor is dropped
// instead of repooled — a held CD never resurrects a drained shard.
// Release is optional and finalizer-free: an unreleased Client and its
// descriptor are reclaimed by the scavenger once the client is
// abandoned or collected; releasing just lets the pool reuse the
// descriptor immediately.
//
// Release is epoch-checked, not idempotent: a second Release (or
// Close) of the same hold panics, because the first one already
// repooled the descriptor — a silent second repool could hand the same
// descriptor to two clients. Release on a never-held or abandoned
// client remains a quiet no-op.
//
//ppc:coldpath -- descriptor release, off the warm call path
func (c *Client) Release() {
	if c.dl != nil {
		// Retire the idle deadline executor (the owning goroutine cannot
		// be mid-call here; a Client is single-goroutine by contract) and
		// abandon its wheel node so the watchdog can unregister it.
		c.dl.retire()
		c.dl = nil
		c.rec.dl.Store(nil)
	}
	cd := c.held
	if cd == nil {
		if c.released && c.rec.state.Load() == crLive {
			panic("rt: double Release of a held client (descriptor already repooled)")
		}
		return
	}
	c.held = nil
	c.released = true
	c.rec.cd.Store(nil)
	// Ownership handoff: losing the CAS means the scavenger reclaimed
	// the descriptor after this client was abandoned — its accounting
	// already settled, so walk away quietly.
	if !cd.owner.CompareAndSwap(c.owHeld, packOwner(ownerGen(c.owHeld)+1, c.program, owFree)) {
		return
	}
	c.shard.releaseCD(cd, c.sys.closeEpoch.Load() == c.heldEpoch)
}

// Close releases the held call descriptor (it is Release under the
// conventional name; the Client remains usable and would re-acquire on
// the next Call).
func (c *Client) Close() { c.Release() }

// Held reports whether the client currently holds a call descriptor.
func (c *Client) Held() bool { return c.held != nil }

// Call performs a synchronous PPC-style call: the calling goroutine
// crosses directly into the server's handler, using only resources it
// already owns. The warm path runs on the client's held call
// descriptor against the shard's service-table replica — no locks, no
// shared mutable cache line, no CAS; the only atomic read-modify-writes
// are the shard-striped admission/completion counters.
//
//ppc:hotpath
func (c *Client) Call(ep EntryPointID, args *Args) error {
	// Payload ownership transfers to the call before anything can shed
	// it (a shed releases the leases; they must be untracked from the
	// ownership record first or the scavenger would release them again).
	// The payload-free warm path pays one masked load.
	if err := c.notePayloads(args); err != nil {
		return err
	}
	// Tenant admission next: an over-budget caller is shed having
	// touched only its own shard's bucket line. The tenant-free warm
	// path pays one predictable branch.
	if c.tenant != 0 {
		if err := c.admitTenant(args); err != nil {
			return err
		}
	}
	if c.held == nil {
		c.Hold()
		if c.held == nil {
			// Hold declined: the client was abandoned.
			c.shard.releaseArgsPayloads(args)
			return ErrClientAbandoned
		}
	}
	// Ownership entry: one load of the record's life state — a
	// read-mostly line, written once at death. The plain warm path
	// never transitions the ownership word; a scavenger that condemns
	// the descriptor mid-call bumps its generation and compensates the
	// pool with a fresh one, so the word stays owHeld for the whole
	// hold and this path pays no RMW (owner.go).
	if c.rec.state.Load() != crLive {
		return c.ownerLost(args)
	}
	if c.rec.epochs != 0 {
		c.beatTick()
	}
	cd := c.held
	err := c.sys.callHeld(c.shard, cd, ep, args, c.program, c)
	// Ownership exit: re-check life. A client abandoned mid-call
	// settles its descriptor through the tombstone CAS — won only if
	// the scavenger has not already condemned the word.
	if c.rec.state.Load() != crLive {
		c.tombstoneExit(cd)
	}
	return err
}

// CallPooled is Call through the shard's descriptor pool instead of
// the held descriptor: one pool CAS pair per call — the Figure 2
// "pooled CD" baseline, and the same path nested Ctx.Call and Upcall
// use. Semantics are identical to Call.
//
//ppc:hotpath
func (c *Client) CallPooled(ep EntryPointID, args *Args) error {
	if err := c.notePayloads(args); err != nil {
		return err
	}
	if c.tenant != 0 {
		if err := c.admitTenant(args); err != nil {
			return err
		}
	}
	return c.sys.callOn(c.shard, ep, args, c.program, false, nil, 0, c.lane)
}

// AsyncCall detaches the caller: the request is handed to the shard's
// worker pool and the caller continues immediately (§4.4). No results
// are returned.
//
//ppc:hotpath
func (c *Client) AsyncCall(ep EntryPointID, args *Args) error {
	if err := c.notePayloads(args); err != nil {
		return err
	}
	if c.tenant != 0 {
		if err := c.admitTenant(args); err != nil {
			return err
		}
	}
	return c.sys.callOn(c.shard, ep, args, c.program, true, nil, 0, c.lane)
}

// AsyncCallNotify is AsyncCall with a completion notification sent on
// done (the file-prefetch pattern: fire many, collect later).
//
//ppc:hotpath
func (c *Client) AsyncCallNotify(ep EntryPointID, args *Args, done chan<- struct{}) error {
	if err := c.notePayloads(args); err != nil {
		return err
	}
	if c.tenant != 0 {
		if err := c.admitTenant(args); err != nil {
			return err
		}
	}
	return c.sys.callOn(c.shard, ep, args, c.program, true, done, 0, c.lane)
}

// Upcall delivers a software-interrupt-style request (§4.4) from an
// arbitrary event source: no client identity, serviced synchronously on
// the named shard.
func (s *System) Upcall(shardID int, ep EntryPointID, args *Args) error {
	if shardID < 0 || shardID >= len(s.shards) {
		panic("rt: shard out of range")
	}
	return s.callOn(&s.shards[shardID], ep, args, 0, false, nil, 0, LaneDefault)
}

// runIsolated invokes a handler, converting a panic into a returned
// fault value. The handler fault-injection site fires inside the
// containment scope, so an injected panic or stall is indistinguishable
// from the handler doing it — which is the point.
func runIsolated(s *System, h Handler, ctx *Ctx, args *Args) (fault any) {
	defer func() { fault = recover() }()
	_ = s.fireFault(FaultSiteHandler)
	h(ctx, args)
	return nil
}

// epProgram is the identity nested calls present (the server itself).
func (s *Service) epProgram() uint32 { return uint32(s.ep) | 1<<31 }

// callHeld is the held-CD synchronous fast path: one replica-table
// lookup, increment-then-check admission on the shard-striped
// counters, and a dispatch on the caller-held descriptor. The warm
// iteration performs no CAS and touches no pool — the Track B analogue
// of Figure 2's "hold CD" rows combined with §4.5.5's replicated
// service table.
//
//ppc:hotpath
func (s *System) callHeld(sh *shard, cd *callDesc, ep EntryPointID, args *Args, program uint32, c *Client) error {
	// Every pre-dispatch error return settles attached payload leases
	// (releaseArgsPayloads): the attach transferred them to this call,
	// and a call that fails before dispatch still consumes them.
	if int(ep) >= MaxEntryPoints {
		sh.releaseArgsPayloads(args)
		return ErrBadEntryPoint
	}
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
	// The health gate sheds before admission: a degraded service costs
	// the caller one atomic load and no in-flight accounting. Gating is
	// opt-in per service; the nil check is free for everyone else. A
	// caller that wins the half-open election carries the probe and
	// must settle the gate on every exit below.
	probe := false
	if svc.health != nil {
		var gerr error
		if probe, gerr = svc.gateAdmit(counters); gerr != nil {
			sh.releaseArgsPayloads(args)
			return gerr
		}
		if probe {
			// Publish the carried probe on the ownership record so the
			// scavenger can settle the gate if this client dies with it.
			c.rec.setProbe(svc, counters)
		}
	}
	counters.admitted.Add(1)
	if svc.state.Load() != svcActive {
		svc.backOut(counters)
		if probe {
			c.rec.clearProbe()
			svc.settleProbe(counters, ErrKilled)
		}
		sh.releaseArgsPayloads(args)
		return ErrKilled
	}
	if cap(cd.scratch) < svc.scratchBytes {
		growScratch(cd, svc.scratchBytes)
	}
	cd.scratch = cd.scratch[:svc.scratchBytes]
	// Completion accounting is inlined, not deferred: dispatch contains
	// handler panics itself (runIsolated), so no unwind can skip these,
	// and a deferred closure costs measurable time at call rates. The
	// completion RMW lands on the line the admission just wrote, and
	// doubles as the Calls count (Service.Calls).
	err := s.dispatch(cd, svc, counters, e.h, args, program, false)
	counters.syncDone.Add(1)
	svc.notifyQuiesce()
	if svc.health != nil {
		svc.recordOutcome(counters, err)
		if probe {
			c.rec.clearProbe()
			svc.settleProbe(counters, err)
		}
	}
	return err
}

// callOn is the pooled fast path (nested calls, upcalls, CallPooled,
// and all asynchronous submission).
//
//ppc:hotpath
func (s *System) callOn(sh *shard, ep EntryPointID, args *Args, program uint32, async bool, done chan<- struct{}, deadline int64, lane Lane) error {
	// Pre-dispatch error returns settle attached payload leases, same
	// contract as callHeld.
	if int(ep) >= MaxEntryPoints {
		sh.releaseArgsPayloads(args)
		return ErrBadEntryPoint
	}
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
	probe := false
	if svc.health != nil {
		var gerr error
		if probe, gerr = svc.gateAdmit(e.counters); gerr != nil {
			sh.releaseArgsPayloads(args)
			return gerr
		}
	}
	if async {
		// Admit the request before handing it to the shard queue:
		// increment-then-check, so a soft kill either sees this request
		// in flight and waits for it, or flips the state first and the
		// request backs out here. The in-flight count covers the request
		// from acceptance until the worker finishes it; the same
		// increment is the AsyncCalls count, so acceptance costs one
		// counter RMW total.
		counters := e.counters
		counters.asyncAdm.Add(1)
		if svc.state.Load() != svcActive {
			svc.backOutAsync(counters)
			if probe {
				svc.settleProbe(counters, ErrKilled)
			}
			sh.releaseArgsPayloads(args)
			return ErrKilled
		}
		if err := sh.submitAsync(s, svc, args, program, done, deadline, lane); err != nil {
			counters.asyncAdm.Add(-1)
			svc.notifyQuiesce()
			// A rejected probe submission carries no health evidence and
			// will never reach a worker; settle the gate here or the
			// stripe sheds until the probe lease expires.
			if probe {
				svc.settleProbe(counters, err)
			}
			sh.releaseArgsPayloads(args)
			return err
		}
		// An accepted async probe settles the gate on the worker side
		// (recordOutcome / recordTimeout at dequeue); the exits that
		// bypass those — a hard-kill discard — fall back to the probe
		// lease in gateAdmitSlow.
		//
		// The ring slot's copy of args now owns the attached leases (the
		// worker settles them at dequeue); strip the caller's descriptor
		// count so this block cannot release them a second time.
		transferPayloads(args)
		return nil
	}
	return s.serviceOne(sh, e, args, program, probe)
}

// faultError wraps a recovered handler panic for the caller.
//
//ppc:coldpath -- fault wrapping happens only when a handler panicked
func faultError(fault any) error {
	return &FaultError{Val: fault}
}

// serviceOne runs one synchronous request to completion on a pooled
// descriptor, admitted here with the increment-then-check protocol:
// the call counts itself in flight first, then re-validates the
// service state and backs out if a kill slipped in between the
// caller's state check and the admission. probe marks this call as the
// health gate's half-open probe; every exit settles the gate.
func (s *System) serviceOne(sh *shard, e *epEntry, args *Args, program uint32, probe bool) error {
	svc, counters := e.svc, e.counters
	counters.admitted.Add(1)
	if svc.state.Load() != svcActive {
		svc.backOut(counters)
		if probe {
			svc.settleProbe(counters, ErrKilled)
		}
		sh.releaseArgsPayloads(args)
		return ErrKilled
	}
	defer func() {
		counters.syncDone.Add(1)
		svc.notifyQuiesce()
	}()

	cd := sh.popCD(svc.scratchBytes)
	err := s.dispatch(cd, svc, counters, e.h, args, program, false)

	// The scratch buffer is deliberately NOT zeroed before reuse —
	// serial sharing of "stacks" is the point (§2); trust domains that
	// must not share scratch use separate Systems.
	sh.pushCD(cd)
	if svc.health != nil {
		svc.recordOutcome(counters, err)
		if probe {
			svc.settleProbe(counters, err)
		}
	}
	return err
}

// serviceOneHeld runs one already-admitted async request on a
// worker-held descriptor. An async worker is the serial owner of its
// descriptor for its whole lifetime, so a batch drain recycles scratch
// with zero pool traffic — no CAS on the shared free list per request,
// the same serial-sharing argument as the paper's stack pages applied
// one level up.
//
//ppc:hotpath
func (s *System) serviceOneHeld(sh *shard, cd *callDesc, svc *Service, args *Args, program uint32) error {
	counters := &svc.perShard[sh.id]
	if svc.state.Load() == svcDead {
		// Hard-killed while queued: discard without executing. (A soft
		// kill waits for queued requests, so svcSoftKilled still runs.)
		// The discarded request's payload leases settle here — the ring
		// copy owned them from acceptance.
		svc.backOutAsync(counters)
		sh.releaseArgsPayloads(args)
		return ErrKilled
	}
	if cap(cd.scratch) < svc.scratchBytes {
		growScratch(cd, svc.scratchBytes)
	}
	cd.scratch = cd.scratch[:svc.scratchBytes]
	// Completion accounting is inlined, not deferred: dispatch contains
	// handler panics itself (runIsolated), so no unwind can skip these,
	// and a deferred closure costs measurable time at ring rates.
	// Async requests resolve the handler from the service's
	// authoritative slot at execution time (Exchange keeps it current),
	// exactly as queued requests always have.
	err := s.dispatch(cd, svc, counters, *svc.handler.Load(), args, program, true)
	counters.completed.Add(1)
	svc.notifyQuiesce()
	if svc.health != nil {
		svc.recordOutcome(counters, err)
	}
	return err
}

// dispatch authorizes and runs one request on cd with steady-state
// handler h — the shared core of the pooled (serviceOne), caller-held
// (callHeld), and worker-held (serviceOneHeld) paths. Synchronous
// callers resolve h from their shard's table replica; async workers
// from the service's authoritative handler slot.
//
//ppc:hotpath
func (s *System) dispatch(cd *callDesc, svc *Service, counters *shardCounters, h Handler, args *Args, program uint32, async bool) error {
	ctx := &cd.ctx
	ctx.sys = s
	ctx.svc = svc
	ctx.cd = cd
	ctx.CallerProgram = program
	ctx.async = async
	// Capture attached payload descriptors before the handler can touch
	// the argument words; every exit below settles the captured leases.
	// The no-payload warm path pays one masked load here and one
	// predictable branch per exit.
	npay := capturePayloads(args, &ctx.pay)

	if svc.authorize != nil && !svc.authorize(program) {
		counters.authFail.Add(1)
		if !async {
			counters.syncFail.Add(1)
		}
		// Conventional failure RC, masked off the payload-count bits the
		// flags half reserves (payload.go) — a denied block must not read
		// as carrying segments when the caller reuses it.
		args.SetRC(uint64(^uint32(0)) &^ payloadCountMask)
		if npay != 0 {
			cd.shard.releasePayloads(args, &ctx.pay)
		}
		return ErrPermissionDenied
	}
	// First call serviced on this shard runs the init handler instead
	// (one-time shard-local setup, §4.5.3); it is expected to handle
	// the request too, typically by ending with the steady-state
	// handler.
	if svc.initHandler != nil && counters.inited.CompareAndSwap(false, true) {
		h = svc.initHandler
	}
	// A panicking handler aborts this call only — the worker isolation
	// of the paper's §2: the exception is delivered to the caller as an
	// error, and the service stays up.
	if fault := runIsolated(s, h, ctx, args); fault != nil {
		if !async {
			counters.syncFail.Add(1)
		}
		if npay != 0 {
			cd.shard.releasePayloads(args, &ctx.pay)
		}
		return faultError(fault)
	}
	if npay != 0 {
		cd.shard.releasePayloads(args, &ctx.pay)
	}
	return nil
}
