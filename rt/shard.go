package rt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// defaultScratchBytes is the default per-call scratch ("stack page").
const defaultScratchBytes = 4096

// defaultAsyncQueueCap bounds the per-shard async request ring.
const defaultAsyncQueueCap = 64

// defaultMaxWorkers bounds the per-shard async worker pool.
const defaultMaxWorkers = 8

// defaultSubmitWait is how long an async submission waits for ring
// space once the worker pool is saturated before reporting
// ErrBackpressure. Bounded by design: a full ring must surface as an
// error to the submitter, never as head-of-line blocking for everyone
// else.
const defaultSubmitWait = time.Millisecond

// defaultNotifyWait bounds how long a worker waits to deliver a
// completion notification on an unready channel before dropping it
// (counted in ShardStats.NotifyDrops). An abandoned unbuffered done
// channel must cost one bounded wait, not a wedged worker.
const defaultNotifyWait = 100 * time.Millisecond

// asyncBatchSize is how many requests a worker claims per ring visit —
// the paper's amortization lever: one wakeup, one stop-check, one
// doorbell round for up to this many requests.
const asyncBatchSize = 16

// workerSpinRounds and workerSpinIters shape the adaptive
// spin-then-park: an idle worker spins on the ring head for up to
// workerSpinRounds visits (workerSpinIters head loads each, yielding
// between later rounds) before parking on the doorbell. The steady
// pipeline — requests arriving while a worker drains — never parks and
// never rings, so it never enters the scheduler.
const (
	workerSpinRounds = 4
	workerSpinIters  = 128
)

// closePollInterval paces close's wait for in-progress submissions on
// one reused timer.
const closePollInterval = 10 * time.Microsecond

// callDesc is the real-concurrency analogue of the paper's call
// descriptor: a recycled per-call context carrying a scratch buffer
// that successive calls to *different* services serially share —
// the cache-footprint optimization of §2. Descriptors live in
// per-shard lock-free pools.
//
// Every call a descriptor serves writes it (dispatch fills ctx, the
// held path re-slices scratch), so a descriptor must share no cache
// line with any other: clients built one after another on one
// goroutine get their held descriptors allocated back to back. The
// tail pad makes the struct exactly 128 bytes, and Go's 128-byte size
// class is a multiple of 64, so every descriptor starts on a line
// boundary and owns both of its lines outright, whichever goroutine
// allocated it (pinned in layout_test.go). ctx fills line 0; line 1
// holds scratch and the words written only at pool and ownership
// transitions — all by the descriptor's current serial owner.
//
//ppc:padded
type callDesc struct {
	// ctx is the handler's view of the call, rewritten by dispatch on
	// every call.
	//
	//ppc:hotline
	ctx Ctx
	// scratch is the per-call scratch buffer, re-sliced to the
	// service's size on every held call.
	//
	//ppc:hotline(desc)
	scratch []byte
	// shard is the descriptor's home shard (immutable).
	//
	//ppc:hotline(desc)
	shard *shard
	// next links the descriptor into its shard's free pool.
	//
	//ppc:hotline(desc)
	next atomic.Pointer[callDesc]
	// owner is the packed gen-tagged ownership word (owner.go):
	// gen<<32 | clientID<<3 | state. Meaningful only while a client
	// holds the descriptor; pooled-path calls never touch it. The
	// word's layout is offset-stable and pointer-free — the pre-work
	// for ROADMAP item 1's mmap'd descriptors.
	//
	//ppc:atomic
	//ppc:hotline(desc)
	owner atomic.Uint64
	_     [16]byte // tile to 128 bytes: a size class that is whole lines
}

// epEntry is one shard's replica of a bound entry point — the §4.5.5
// replicated service table carried to Track B. Each shard gets its own
// immutable (service, handler, counters) triple, allocated afresh at
// publication time, so the warm lookup dereferences only memory that
// no other shard's publication ever rewrites: the table slot and the
// entry it points at are read by exactly one shard. The counters
// pointer pre-resolves this shard's stripe of the service's admission
// counters, saving the perShard slice-header indirection per call.
type epEntry struct {
	svc      *Service
	h        Handler
	counters *shardCounters
}

// shard is the per-"processor" state: a lock-free free list of call
// descriptors, a replica of the service table, and the async worker
// machinery. Padding keeps shards on distinct cache lines, and —
// since System.shards is a []shard — the //ppc:padded annotation has
// ppclint verify the internal line assignments AND that the struct
// size tiles 64 bytes, so neighbouring shards never shear.
//
//ppc:padded
type shard struct {
	id int

	// tab is this shard's replica of the service table (§4.5.5): one
	// entry-point array per shard, written only by the control plane
	// (Bind/Exchange/Kill publish to every replica under System.mu) and
	// read only by calls bound to this shard — the lookup never touches
	// a line another processor's calls read, exactly as in the paper.
	//
	//ppc:shard-owned
	tab []atomic.Pointer[epEntry]

	// cdsCreated counts descriptor allocations (pool growth).
	cdsCreated atomic.Int64
	// heldCDs counts descriptors currently pinned by clients in held-CD
	// mode (Client.Hold / the first Call); they are outside the free
	// pool until Release.
	heldCDs atomic.Int64
	_       [16]byte // fill line 0: the pool head starts on its own line

	// free is a Treiber stack of call descriptors. With callers bound
	// to their own shards the CAS never contends; it exists so that
	// *correctness* does not depend on the binding discipline, only
	// performance — and Go's GC makes the ABA problem moot (nodes are
	// never unsafely reused). Isolated on its own line: async workers
	// pop/push descriptors from other cores, and before this padding
	// their CAS invalidated the line holding the service-table header
	// that every submit reads.
	//
	//ppc:shard-owned
	//ppc:atomic
	//ppc:hotline
	free atomic.Pointer[callDesc]
	_    [56]byte

	// ring feeds the shard's dynamically-created async workers (§4.4:
	// asynchronous requests detach the caller; §2: workers are created
	// as needed). Submission is a ticket CAS plus an in-place slot
	// write — no channel lock, no scheduler round trip. 64-aligned so
	// the ring's internal cursor isolation is not sheared.
	//
	//ppc:shard-owned
	ring asyncRing

	// doorbell wakes a parked worker. Submitters ring it only when
	// parked is nonzero, so the steady-state pipeline never touches it;
	// the buffer of one coalesces rings (a pending token means a wakeup
	// is already owed).
	//
	//ppc:hotline(wake)
	doorbell chan struct{}
	// parked counts workers blocked on the doorbell. A worker
	// increments it, re-checks the ring (the Dekker handshake against
	// a concurrent publish), and only then blocks. The wake pair shares
	// one line by design (same transition touches both); the padding
	// keeps these worker-side transitions off the line submitters RMW
	// on every submit (submitting, below).
	//
	//ppc:atomic
	//ppc:hotline(wake)
	parked atomic.Int64
	_      [48]byte

	// submitting counts submissions between their closed-check and the
	// completion of their enqueue (or rejection). close waits for it to
	// reach zero so the ring contents are final before the drain. Every
	// submitter RMWs it, so it owns its line.
	//
	//ppc:atomic
	//ppc:hotline
	submitting atomic.Int64
	_          [56]byte

	// clock is the shared coarse clock the wheel tick, the submit slow
	// paths, and the worker batch drain refresh (and the deadline arm
	// path reads). Padded internally; placed on the line boundary the
	// submitting pad establishes, so that padding holds.
	clock coarseClock

	// wheel is the shard's hashed timer wheel, ticked by the watchdog
	// goroutine. Everything below it down to the arena is control-plane
	// state with no line requirements; the control-plane run plus the
	// tail pad keep the whole struct tiling whole cache lines (and the
	// embedded arena line-aligned) so System.shards never shears —
	// pinned in layout_test.go.
	wheel dlWheel

	// stop, once closed, tells workers to drain the ring and exit.
	stop chan struct{}
	//ppc:atomic
	workers    atomic.Int64
	maxWorkers int64
	submitWait time.Duration
	notifyWait time.Duration

	// Worker supervision (watchdog.go). beats holds one padded
	// heartbeat line per potential worker; the remaining fields are the
	// replacement-accounting control plane, touched only on stall
	// detection and recovery.
	beats            []workerBeat
	stallThreshold   time.Duration
	watchdogInterval time.Duration
	maxReplacements  int64
	watchdogOn       bool // guarded by qMu
	//ppc:atomic
	extraGrant atomic.Int64
	//ppc:atomic
	retire                atomic.Int64
	stuckWorkers          atomic.Int64
	replacementsSpawned   atomic.Int64
	replacementsReclaimed atomic.Int64

	// wheelGranularity is the shard's timer-wheel tick width
	// (deadline.go / wheel.go).
	wheelGranularity time.Duration

	// Deadline / orphaning accounting (deadline.go). quarantinedCDs
	// counts call descriptors pinned under a still-running orphaned
	// handler; deadlineExpired counts calls settled by expiry (sync
	// orphans and async drops alike).
	quarantinedCDs  atomic.Int64
	deadlineExpired atomic.Int64

	// Lifecycle observability (see ShardStats).
	backpressure atomic.Int64
	workerExits  atomic.Int64
	notifyDrops  atomic.Int64

	//ppc:atomic
	closed atomic.Bool
	qMu    sync.Mutex // guards worker spawn vs close — never on the submit fast path
	wg     sync.WaitGroup

	// Priority lanes (lane.go): lanes is non-nil iff Options.Lanes >= 2
	// — every lane check on the hot paths is that one nil comparison.
	// The slice header and the weight vector are read-only after
	// construction. Tenant admission (tenant.go): tenants is the
	// per-shard bucket table (atomic pointers, published by
	// ConfigureTenant under System.mu), tenantList the watchdog's flat
	// refill list, tenantThrottled the budget-shed count. All
	// read-mostly or cold-RMW; the block is sized to two whole lines so
	// the arena below keeps its 64-alignment.
	lanes   []laneRing
	tenants []atomic.Pointer[tenantBucket]
	//ppc:atomic
	tenantList atomic.Pointer[[]*tenantBucket]
	//ppc:atomic
	tenantThrottled atomic.Int64
	laneWeights     [NumLaneClasses]int32
	// yieldPerBatch: Options.CooperativeYield — the worker cedes the P
	// once per serviced batch so sleeping submitters can publish.
	// Read-only after construction, like the rest of this block.
	yieldPerBatch bool
	_             [51]byte // fill the lane/tenant block to 128 bytes

	// arena is the shard's payload arena (arena.go) and offload its
	// copy-staging lane (offload.go). Warm payload traffic only *loads*
	// arena fields (the RMW-hot cursors live in the slabs, padded
	// there); the lane is reached only on large transfers. The arena
	// sits at the struct's tail on the line boundary the control-plane
	// fields above fill out to (pinned in layout_test.go), so its
	// internal cur-line isolation is not sheared.
	arena   shardArena
	offload *offloadLane
	// reg is the shard's client-ownership registry (owner.go): death
	// declarations, the scavenger walk list, and the domain-death
	// counters all live behind this one cold pointer, so the shard's
	// own layout is untouched by the ownership protocol.
	reg *clientRegistry
	_   [48]byte // tail pad: shard tiles whole lines (System.shards is a []shard)
}

type asyncReq struct {
	sys  *System
	svc  *Service
	args Args
	prog uint32
	done chan<- struct{} // optional completion notification
	// deadline is the absolute unix-nano expiry (0: none). A request
	// still queued past it is settled as expired instead of executed.
	deadline int64
}

// clearRefs nils just the pointer fields — all the GC cares about —
// instead of zeroing the whole request (the args block dominates its
// size, and rewriting it costs a cache line and a half per dequeue).
//
//ppc:hotpath
func (r *asyncReq) clearRefs() {
	r.sys = nil
	r.svc = nil
	r.done = nil
}

func (sh *shard) init(id int) {
	sh.id = id
	sh.tab = make([]atomic.Pointer[epEntry], MaxEntryPoints)
	sh.ring.init(defaultAsyncQueueCap) // configureLanes may re-init with Options' capacity
	sh.doorbell = make(chan struct{}, 1)
	sh.stop = make(chan struct{})
	sh.maxWorkers = defaultMaxWorkers
	sh.submitWait = defaultSubmitWait
	sh.notifyWait = defaultNotifyWait
	sh.offload = &offloadLane{}
	sh.offload.init(defaultOffloadThreshold)
	sh.arena.lane = sh.offload
}

// configureArena applies Options' payload knobs (called from
// NewSystemOptions, once per shard, before any traffic).
//
//ppc:coldpath -- construction-time configuration
func (sh *shard) configureArena(o Options) {
	if o.OffloadThreshold != 0 {
		sh.offload.threshold = o.OffloadThreshold // negative disables
	}
}

// lookup reads this shard's replica of entry point ep — the fast-path
// service-table access (§4.5.5): one atomic load of a slot only this
// shard reads.
//
//ppc:hotpath
func (sh *shard) lookup(ep EntryPointID) *epEntry {
	return sh.tab[ep].Load()
}

// publish installs e as this shard's replica entry for ep. Called only
// by the control plane (Bind/Exchange) under System.mu.
//
//ppc:coldpath -- control-plane publication, serialized by System.mu
func (sh *shard) publish(ep EntryPointID, e *epEntry) {
	sh.tab[ep].Store(e)
}

// retract clears this shard's replica entry for ep. Called only by the
// control plane (Kill) under System.mu.
//
//ppc:coldpath -- control-plane retraction, serialized by System.mu
func (sh *shard) retract(ep EntryPointID) {
	sh.tab[ep].Store(nil)
}

// holdCD takes a descriptor out of the pool for a client entering
// held-CD mode; it stays out until releaseCD.
//
//ppc:coldpath -- descriptor acquisition; the warm held path never comes here
func (sh *shard) holdCD() *callDesc {
	sh.heldCDs.Add(1)
	return sh.popCD(defaultScratchBytes)
}

// releaseCD ends a hold. repool returns the descriptor to the free
// list; a stale-epoch release (the System was closed while the client
// held it) drops the descriptor instead, so a drained shard's pool is
// never repopulated from the outside.
//
//ppc:coldpath -- descriptor release, off the warm call path
func (sh *shard) releaseCD(cd *callDesc, repool bool) {
	sh.heldCDs.Add(-1)
	if repool {
		sh.pushCD(cd)
	}
}

// popCD takes a descriptor from the shard pool, or allocates one. The
// warm path is one CAS; descriptor creation and scratch growth are the
// cold halves. The pop reads top.next through the head witness — the
// classic Treiber ABA shape — which is safe here only because Go's GC
// cannot recycle top's address while this goroutine holds the pointer.
//
//ppc:aba(gc) -- garbage collection rules out address reuse while top is reachable
func (sh *shard) popCD(scratchBytes int) *callDesc {
	for {
		top := sh.free.Load()
		if top == nil {
			return sh.newCD(scratchBytes)
		}
		next := top.next.Load()
		if sh.free.CompareAndSwap(top, next) {
			top.next.Store(nil)
			if cap(top.scratch) < scratchBytes {
				growScratch(top, scratchBytes)
			}
			top.scratch = top.scratch[:scratchBytes]
			return top
		}
	}
}

// newCD manufactures a call descriptor when the pool is empty — the
// analogue of Frank provisioning a CD from local memory.
//
//ppc:coldpath -- pool growth: runs only while the pool is warming up
func (sh *shard) newCD(scratchBytes int) *callDesc {
	sh.cdsCreated.Add(1)
	return &callDesc{shard: sh, scratch: make([]byte, scratchBytes)}
}

// growScratch replaces a pooled descriptor's scratch buffer when a
// service with a larger requirement borrows it.
//
//ppc:coldpath -- amortized scratch growth, at most once per descriptor per size
func growScratch(cd *callDesc, scratchBytes int) {
	cd.scratch = make([]byte, scratchBytes)
}

// pushCD returns a descriptor to the pool.
func (sh *shard) pushCD(cd *callDesc) {
	for {
		top := sh.free.Load()
		cd.next.Store(top)
		if sh.free.CompareAndSwap(top, cd) {
			return
		}
	}
}

// PoolSize counts pooled descriptors (diagnostics; O(n)).
func (sh *shard) poolSize() int {
	n := 0
	for cd := sh.free.Load(); cd != nil; cd = cd.next.Load() {
		n++
	}
	return n
}

// submitAsync hands a request to the shard's async workers: one atomic
// closed-check, one ring push (ticket CAS + slot write), and a wake
// that in the steady state is two atomic loads. No locks, no channel
// internals, no scheduler transit. When the ring is full, the slow
// half grows the worker pool and waits a bounded time for space before
// reporting ErrBackpressure — overload is reported to the one
// overloading submitter instead of head-of-line-blocking every other
// submitter (and Close) behind a held lock.
//
//ppc:hotpath
func (sh *shard) submitAsync(sys *System, svc *Service, args *Args, prog uint32, done chan<- struct{}, deadline int64, lane Lane) error {
	sh.submitting.Add(1)
	defer sh.submitting.Add(-1)
	if sh.closed.Load() {
		return ErrClosed
	}
	if err := sys.fireFault(FaultSiteSubmit); err != nil {
		sh.backpressure.Add(1)
		return ErrBackpressure
	}
	if sh.lanes == nil {
		// Single-lane fast path: identical to the lane-free system.
		if sh.ring.push(sys, svc, args, prog, done, deadline) {
			sh.wake(sys)
			return nil
		}
		return sh.submitSlow(&sh.ring, nil, sys, svc, args, prog, done, deadline)
	}
	lr := sh.laneFor(lane, svc)
	if lr.ring.push(sys, svc, args, prog, done, deadline) {
		sh.wake(sys)
		return nil
	}
	if lr == &sh.lanes[len(sh.lanes)-1] {
		// Criticality-ordered shedding: the lowest class is shed the
		// moment its ring fills — no bounded wait spent on the traffic
		// that is first to go. Classes above it keep the single-lane
		// contract (bounded wait, then ErrBackpressure) and their rings
		// drain first, so best-effort sheds before normal, normal
		// before critical.
		lr.shed.Add(1)
		return ErrShed
	}
	return sh.submitSlow(&lr.ring, &lr.shed, sys, svc, args, prog, done, deadline)
}

// submitBatch publishes a whole batch of requests for svc under a
// single submitting window: one closed-check and one wake amortized
// over every slot — the §4.4 amortized-async analogue. Admission
// accounting (in-flight counts, kill backouts) is the caller's
// responsibility; submitBatch reports how many requests the ring
// accepted. On a full ring it falls to the bounded slow half for the
// remainder.
//
//ppc:hotpath
func (sh *shard) submitBatch(sys *System, svc *Service, argss []Args, program uint32, done chan<- struct{}, deadline int64, lane Lane) (int, error) {
	sh.submitting.Add(1)
	defer sh.submitting.Add(-1)
	if sh.closed.Load() {
		return 0, ErrClosed
	}
	if err := sys.fireFault(FaultSiteSubmit); err != nil {
		sh.backpressure.Add(1)
		return 0, ErrBackpressure
	}
	r, shed := &sh.ring, (*atomic.Int64)(nil)
	if sh.lanes != nil {
		lr := sh.laneFor(lane, svc)
		r = &lr.ring
		if lr == &sh.lanes[len(sh.lanes)-1] {
			shed = &lr.shed
			// Best-effort batches shed their tail immediately on a full
			// ring, same criticality-ordered contract as submitAsync.
			n := 0
			for i := range argss {
				if !r.push(sys, svc, &argss[i], program, done, deadline) {
					shed.Add(int64(len(argss) - n))
					if n > 0 {
						sh.wake(sys)
					}
					return n, ErrShed
				}
				n++
			}
			sh.wake(sys)
			return n, nil
		}
		shed = &lr.shed
	}
	n := 0
	for i := range argss {
		if !r.push(sys, svc, &argss[i], program, done, deadline) {
			return sh.submitBatchSlow(r, shed, sys, svc, argss[i:], program, done, deadline, n)
		}
		n++
	}
	sh.wake(sys)
	return n, nil
}

// wake makes freshly-published work visible to a worker: spawn the
// first worker if the pool is empty, and ring the doorbell only when a
// worker is actually parked. In the steady state — a live worker
// draining a non-empty ring — both branches are a single atomic load
// and the submitter never enters the scheduler.
//
//ppc:hotpath
func (sh *shard) wake(sys *System) {
	if sh.workers.Load() == 0 {
		sh.spawnWorker(sys)
	}
	if sh.parked.Load() != 0 {
		select {
		case sh.doorbell <- struct{}{}:
		default: // a token is already pending; the wakeup is owed
		}
	}
}

// submitSlow is the ring-full half of submitAsync: grow the worker
// pool if it has headroom (spawnWorker refuses at maxWorkers), then
// retry for a bounded time before reporting backpressure. The retry
// yields rather than sleeps: a timer sleep's real granularity (tens of
// microseconds) would gate saturated throughput, while Gosched hands
// the processor straight to the draining worker and retries the moment
// slots free up.
//
//ppc:coldpath -- overload handling: the ring is full, the caller is already paying
func (sh *shard) submitSlow(r *asyncRing, shed *atomic.Int64, sys *System, svc *Service, args *Args, prog uint32, done chan<- struct{}, reqDeadline int64) error {
	sh.spawnWorker(sys)
	// One real clock read per spin *epoch*, not per iteration, and each
	// read feeds the shard's shared coarse clock (the same word the
	// wheel tick and the batch drain use). The refresh — not a cached
	// read — is what keeps close's wait on submitting live: a frozen
	// clock could never observe the submit deadline passing.
	deadline := sh.clock.refresh() + int64(sh.submitWait)
	spun := 0
	for {
		if r.push(sys, svc, args, prog, done, reqDeadline) {
			sh.wake(sys)
			return nil
		}
		// Retrying a push against a full ring is read-only (a seq load
		// finds the slot still occupied, no CAS), so spin a bounded
		// burst first — a draining worker frees a whole batch of slots
		// in well under a park/unpark round trip.
		if spun < workerSpinIters {
			spun++
			continue
		}
		if sh.clock.refresh() > deadline {
			sh.backpressure.Add(1)
			if shed != nil {
				shed.Add(1)
			}
			return ErrBackpressure
		}
		runtime.Gosched()
		spun = 0
	}
}

// submitBatchSlow finishes a batch that filled the ring: wake the
// drain side, grow the worker pool, and push the remainder under the
// same bounded wait as submitSlow. Returns the total accepted count;
// requests past the deadline are rejected as one backpressure event.
//
//ppc:coldpath -- overload handling for the batch tail
func (sh *shard) submitBatchSlow(r *asyncRing, shed *atomic.Int64, sys *System, svc *Service, rest []Args, program uint32, done chan<- struct{}, reqDeadline int64, accepted int) (int, error) {
	sh.wake(sys) // the already-published head of the batch is runnable
	sh.spawnWorker(sys)
	// Same coarse-clock discipline as submitSlow: one refresh per spin
	// epoch, shared into the wheel's clock word.
	deadline := sh.clock.refresh() + int64(sh.submitWait)
	spun := 0
	for i := range rest {
		for !r.push(sys, svc, &rest[i], program, done, reqDeadline) {
			// Same spin-then-yield as submitSlow: the retry is read-only
			// against a full ring, and a batch drain frees slots faster
			// than a scheduler round trip.
			if spun < workerSpinIters {
				spun++
				continue
			}
			if sh.clock.refresh() > deadline {
				sh.backpressure.Add(1)
				if shed != nil {
					shed.Add(int64(len(rest) - i))
				}
				return accepted, ErrBackpressure
			}
			runtime.Gosched()
			spun = 0
		}
		accepted++
	}
	sh.wake(sys)
	return accepted, nil
}

// spawnWorker starts one async worker unless the pool is at its cap or
// the shard is closing. The lock is control-plane only: spawns happen
// when the pool is empty or the ring backed up, never on the steady
// submit path.
//
//ppc:coldpath -- worker-pool growth control plane, guarded against close, off the steady submit path
func (sh *shard) spawnWorker(sys *System) {
	if sh.workers.Load() >= sh.maxWorkers {
		return // saturated overload calls this per submit; skip the lock
	}
	sh.qMu.Lock()
	defer sh.qMu.Unlock()
	if sh.closed.Load() || sh.workers.Load() >= sh.maxWorkers {
		return
	}
	sh.startWatchdog(sys)
	sh.workers.Add(1)
	sh.wg.Add(1)
	go sh.workerLoop(sys)
}

// workerLoop services async requests in batches until stop is closed,
// then drains whatever remains in the ring and exits, keeping the
// worker count accurate on the way out.
//
// An idle worker adapts: first it spins briefly on the ring head (the
// submission latency of a pipelined producer is far shorter than a
// park/unpark round trip), then it parks on the doorbell. The park is
// a Dekker handshake with wake: the worker advertises itself in
// parked, re-checks the ring, and only then blocks — a submitter
// either sees the advertisement and rings, or the worker sees the
// submitter's slot and never parks.
func (sh *shard) workerLoop(sys *System) {
	// The worker holds one call descriptor for its whole lifetime:
	// servicing a request costs no pool CAS, and the scratch buffer
	// stays hot in the worker's cache across the batch.
	cd := sh.popCD(defaultScratchBytes)
	beat := sh.claimBeat()
	defer func() {
		sh.releaseBeat(beat)
		sh.pushCD(cd)
		sh.workers.Add(-1)
		sh.workerExits.Add(1)
		sh.wg.Done()
	}()
	var batch [asyncBatchSize]asyncReq
	// credit is the worker's private copy of the lane quantum vector
	// (claimWeighted decrements and resets it); unused on a single-lane
	// shard.
	var credit [NumLaneClasses]int32
	if sh.lanes != nil {
		sh.resetCredits(&credit)
	}
	idle := 0
	var seq uint64
	for {
		// Retire tokens convert revoked stall compensations back into the
		// configured worker cap: one token, one exit. Checked once per
		// loop — a single uncontended load in the steady state.
		if sh.tryRetire() {
			return
		}
		var n int
		if sh.lanes == nil {
			n = sh.ring.popBatch(batch[:])
		} else {
			n = sh.claimWeighted(&credit, batch[:])
		}
		if n > 0 {
			idle = 0
			// Heartbeat: one plain store on a worker-private line per
			// batch, not per request — the watchdog's whole warm-path tax.
			if beat != nil {
				seq++
				beat.state.Store(seq<<1 | 1)
			}
			now := sh.batchClock(batch[:n])
			for i := 0; i < n; i++ {
				sh.handleAsync(sys, cd, &batch[i], now)
				batch[i].clearRefs()
			}
			if beat != nil {
				beat.state.Store(seq << 1)
				sh.clearCompensation(beat)
			}
			if sh.yieldPerBatch {
				// Opt-in (Options.CooperativeYield): cede the P once per
				// serviced batch. On a single-P runtime a CPU-bound
				// worker otherwise runs whole scheduler quanta (~10ms)
				// while sleeping submitters — the critical lane's
				// included — wake runnable but cannot publish; one
				// Gosched amortized over a batch bounds cross-lane
				// submit latency by a batch service time instead.
				runtime.Gosched()
			}
			continue
		}
		select {
		case <-sh.stop:
			sh.drainAll(sys, cd, batch[:])
			return
		default:
		}
		if !sh.queuesEmpty() {
			// A producer has claimed a slot but not published it yet;
			// yield to it instead of spin-starving it.
			runtime.Gosched()
			continue
		}
		if idle < workerSpinRounds {
			idle++
			if idle > 1 {
				runtime.Gosched()
			}
			for i := 0; i < workerSpinIters && sh.queuesEmpty(); i++ {
			}
			continue
		}
		// Park: advertise, re-check, block. The re-check covers EVERY
		// lane ring — that is what makes the shared doorbell correct
		// per lane: a critical submitter either sees parked != 0 and
		// rings, or this worker sees its slot and never blocks.
		sh.parked.Add(1)
		if !sh.queuesEmpty() {
			sh.parked.Add(-1)
			idle = 0
			continue
		}
		select {
		case <-sh.doorbell:
		case <-sh.stop:
		}
		sh.parked.Add(-1)
		idle = 0
	}
}

// drainRing services everything left in one ring. Callers guarantee no
// new requests can be published (stop is closed and close has waited
// for in-progress submissions), so the drain terminates.
func (sh *shard) drainRing(r *asyncRing, sys *System, cd *callDesc, batch []asyncReq) {
	for {
		n := r.popBatch(batch)
		if n == 0 {
			if r.empty() {
				return
			}
			runtime.Gosched() // an in-flight publish; let it land
			continue
		}
		now := sh.batchClock(batch[:n])
		for i := 0; i < n; i++ {
			sh.handleAsync(sys, cd, &batch[i], now)
			batch[i].clearRefs()
		}
	}
}

// drainAll drains every async ring — the single ring, or each lane in
// priority order (the order is cosmetic during a drain: everything
// accepted is serviced either way).
func (sh *shard) drainAll(sys *System, cd *callDesc, batch []asyncReq) {
	if sh.lanes == nil {
		sh.drainRing(&sh.ring, sys, cd, batch)
		return
	}
	for i := range sh.lanes {
		sh.drainRing(&sh.lanes[i].ring, sys, cd, batch)
	}
}

// batchClock supplies the expiry clock for one drained batch: zero (no
// clock read at all) when no request in the batch carries a deadline,
// otherwise one real clock read — refreshed into the shard's shared
// coarse clock, the same word the wheel tick maintains — amortized
// over the whole batch instead of a time.Now() per request. Refreshing
// (rather than reading the possibly-stale cache) is required for
// correctness: the clock may have no other driver, and a queued
// deadline must be judged against real time.
func (sh *shard) batchClock(batch []asyncReq) int64 {
	for i := range batch {
		if batch[i].deadline != 0 {
			return sh.clock.refresh()
		}
	}
	return 0
}

// handleAsync runs one dequeued request and delivers its completion
// notification. now is the batch's hoisted coarse clock (batchClock);
// it is nonzero whenever any request in the batch is deadline-stamped.
// The delivery is non-blocking with a bounded fallback: a ready (or
// buffered) channel costs one send, an unready one falls to the cold
// half — an abandoned channel must never wedge the worker (and with it
// every drain) forever.
func (sh *shard) handleAsync(sys *System, cd *callDesc, req *asyncReq, now int64) {
	if req.deadline != 0 && now > req.deadline {
		sh.expireAsync(req)
	} else {
		sys.serviceOneHeld(sh, cd, req.svc, &req.args, req.prog)
	}
	if req.done != nil {
		select {
		case req.done <- struct{}{}:
		default:
			sh.notifySlow(req.done)
		}
	}
}

// expireAsync settles a queued request whose deadline passed before a
// worker reached it: the handler never runs, the in-flight accounting
// is balanced (so a draining soft Kill is not wedged by expired work),
// and the expiry is recorded as health evidence. The completion
// notification is still delivered by the caller — an expired request
// is settled, not lost.
//
//ppc:coldpath -- the deadline already expired; nothing latency-sensitive remains
func (sh *shard) expireAsync(req *asyncReq) {
	sh.deadlineExpired.Add(1)
	sh.releaseArgsPayloads(&req.args)
	counters := &req.svc.perShard[sh.id]
	counters.completed.Add(1)
	req.svc.notifyQuiesce()
	if req.svc.health != nil {
		req.svc.recordTimeout(counters)
	}
}

// notifySlow waits a bounded time for a notification receiver, then
// drops the notification and counts it in NotifyDrops. Buffered done
// channels (the documented recommendation) never come here.
//
//ppc:coldpath -- the receiver is not ready; the worker is already off the fast path
func (sh *shard) notifySlow(done chan<- struct{}) {
	timer := time.NewTimer(sh.notifyWait)
	defer timer.Stop()
	select {
	case done <- struct{}{}:
	case <-timer.C:
		sh.notifyDrops.Add(1)
	}
}

// stats snapshots the shard's pool and async lifecycle state for
// System.Stats (diagnostics, not the hot path).
//
//ppc:coldpath -- diagnostics snapshot, deliberately off the call path
func (sh *shard) stats(i int) ShardStats {
	st := ShardStats{
		Shard:                 i,
		CDsCreated:            sh.cdsCreated.Load(),
		PooledCDs:             sh.poolSize(),
		HeldCDs:               sh.heldCDs.Load(),
		AsyncWorkers:          sh.workers.Load(),
		WorkerExits:           sh.workerExits.Load(),
		AsyncQueueDepth:       sh.ring.length(),
		AsyncQueueCap:         sh.ring.capacity(),
		BackpressureRejects:   sh.backpressure.Load(),
		NotifyDrops:           sh.notifyDrops.Load(),
		StuckWorkers:          sh.stuckWorkers.Load(),
		ReplacementsSpawned:   sh.replacementsSpawned.Load(),
		ReplacementsReclaimed: sh.replacementsReclaimed.Load(),
		QuarantinedCDs:        sh.quarantinedCDs.Load(),
		DeadlineExpirations:   sh.deadlineExpired.Load(),
		LeasesActive:          sh.arena.leasesActive(),
		OffloadedBytes:        sh.offload.bytes.Load(),
		OffloadQueueDepth:     sh.offload.queueDepth(),
		ArenaGrows:            sh.arena.grows.Load(),
		TenantThrottled:       sh.tenantThrottled.Load(),
	}
	if reg := sh.reg; reg != nil {
		st.AbandonedClients = reg.abandoned.Load()
		st.ScavengedCDs = reg.scavCDs.Load()
		st.ScavengedLeases = reg.scavLeases.Load()
		st.TombstonedCompletions = reg.tombstoned.Load()
	}
	if sh.lanes != nil {
		st.AsyncQueueDepth, st.AsyncQueueCap = 0, 0
		for l := range sh.lanes {
			st.LaneDepth[l] = sh.lanes[l].ring.length()
			st.ShedByLane[l] = sh.lanes[l].shed.Load()
			st.AsyncQueueDepth += st.LaneDepth[l]
			st.AsyncQueueCap += sh.lanes[l].ring.capacity()
		}
	}
	return st
}

// close shuts the shard's async side down: reject new submissions, wait
// for in-progress submissions to land (bounded by submitWait), tell
// workers to drain and exit, and join them. A zero deadline means wait
// for the drain indefinitely; otherwise close reports whether the
// workers exited before the deadline. Queued requests accepted before
// close are executed, not dropped — the graceful half of the drain.
func (sh *shard) close(sys *System, deadline time.Time) bool {
	sh.qMu.Lock()
	sh.closed.Store(true)
	sh.qMu.Unlock()
	if sh.submitting.Load() != 0 {
		// One reused timer paces the wait — no per-iteration timer
		// allocation, no raw busy-sleep.
		timer := time.NewTimer(closePollInterval)
		for sh.submitting.Load() != 0 {
			<-timer.C
			timer.Reset(closePollInterval)
		}
		timer.Stop()
	}
	close(sh.stop)
	done := make(chan struct{})
	go func() {
		sh.wg.Wait()
		close(done)
	}()
	if deadline.IsZero() {
		<-done
	} else {
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		select {
		case <-done:
		case <-timer.C:
			return false
		}
	}
	// Requests can be queued with no worker alive (the submitter's
	// spawn lost the race with close); service them here so accepted
	// work and its in-flight accounting always drain.
	var batch [asyncBatchSize]asyncReq
	cd := sh.popCD(defaultScratchBytes)
	sh.drainAll(sys, cd, batch[:])
	sh.pushCD(cd)
	// Offload jobs are published inside the submitting window waited out
	// above, so every staged copy is visible by now; complete any the
	// worker (if one ever ran) did not get to before exiting.
	sh.offload.drain(&sh.arena)
	return true
}
