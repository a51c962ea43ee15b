// Package rt is the real-concurrency track of the reproduction: a
// PPC-style intra-process service-call facility for Go programs, built
// on the paper's design rules — in the common case a call must access
// no shared data and acquire no locks, and the resources used to
// service a call must be local to the caller.
//
// The mapping from the paper's machine to the Go runtime:
//
//   - processor        -> shard (callers bind to one; typically one
//     shard per GOMAXPROCS slot)
//   - worker process   -> the caller's goroutine crossing directly into
//     the server's handler (the pure PPC model)
//   - call descriptor  -> a per-shard recycled call context with a
//     scratch buffer (the "stack" serially shared by services)
//   - program ID       -> caller identity checked by the server's
//     authorization hook (naming and protection separated, §4.1)
//
// The Go scheduler hides true core pinning, so a shard is an
// approximation of a processor: when each calling goroutine sticks to
// its own shard, the facility touches only shard-local state and scales
// with GOMAXPROCS, while the locked/central baselines in this package
// saturate — the same shape as the paper's Figure 3.
//
// Two Figure 2 optimizations are carried over verbatim:
//
//   - Held call descriptors ("hold CD"): a Client keeps one call
//     descriptor across calls — acquired on the first Call (or an
//     explicit Hold), returned by Release/Close — so the warm
//     synchronous path performs no descriptor-pool CAS at all. A
//     Client is single-goroutine by contract, exactly as a process is
//     bound to a processor.
//   - Replicated service tables (§4.5.5): every shard owns a replica
//     of the entry-point table. Bind, Exchange, and Kill publish to
//     all replicas under the control-plane mutex; a call reads only
//     its own shard's copy, so the lookup line is shard-local.
//
// Together they make the warm synchronous call touch no shared
// mutable cache line and perform no atomic read-modify-write beyond
// the shard-striped admission/completion counters the kill protocol
// requires.
//
// # Lifecycle and overload semantics
//
// The control paths honor the same discipline as the call path — the
// facility itself must never serialize callers:
//
//   - Soft kill (Kill with hard=false) is a quiescence protocol: the
//     service stops admitting new calls immediately, and Kill returns
//     only after every admitted call — including asynchronous requests
//     already accepted into a shard queue — has finished. Admission is
//     increment-then-check: a caller first counts itself in flight,
//     then re-validates the service state and backs out if a kill
//     intervened, so no call ever begins executing after Kill has
//     returned. Backed-out calls fail with ErrKilled and are counted
//     in Service.KilledBackouts.
//   - Hard kill (hard=true) marks the entry dead at once. Asynchronous
//     requests still queued are discarded, not executed.
//   - Exchange replaces the handler atomically: calls in progress
//     finish on the old handler; new calls get the new one.
//   - Asynchronous submission is lock-free and bounded: each shard
//     owns a fixed-capacity Vyukov-style ring (sequence-numbered
//     slots) and a capped worker pool. Submission is a ticket CAS
//     plus an in-place slot write — no channel lock, no scheduler
//     round trip. Workers drain the ring in batches and park on a
//     per-shard doorbell only after a bounded spin; submitters ring
//     the doorbell only when a worker is actually parked, so the
//     steady-state pipeline never enters the scheduler. When the ring
//     is full and the pool saturated, AsyncCall waits a bounded time
//     for space and then fails with ErrBackpressure — overload is
//     surfaced to the overloading submitter (and in ShardStats), never
//     spread to other submitters as head-of-line blocking.
//   - Batched submission (Client.AsyncBatch, or a reusable Batch with
//     Flush) admits once and publishes many slots: one admission
//     check, one wakeup, n requests — the paper's amortized
//     asynchronous calls (§4.4).
//   - Close rejects new asynchronous submissions, lets workers drain
//     requests already accepted, and joins every worker before
//     returning, so Stats reports zero AsyncWorkers afterwards.
//     CloseTimeout bounds the drain and reports ErrDrainTimeout if
//     workers were still busy. Synchronous calls use no goroutines and
//     keep working after Close.
//
// Calling Kill (soft) or Close from inside a handler of the service
// being drained deadlocks, exactly as joining yourself always does.
// Completion channels passed to AsyncCallNotify should be buffered: a
// worker delivers the notification non-blocking, waits a bounded time
// for an unready receiver, and then drops the notification (counted in
// ShardStats.NotifyDrops) — an abandoned channel costs a bounded wait,
// never a wedged worker.
package rt

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// NumArgWords is the register-argument count, as in the paper: 8 words
// in and the same 8 variables out.
const NumArgWords = 8

// Args is the argument block of a call: the handler mutates it in
// place, like the PPC_CALL macro's eight variables.
type Args [NumArgWords]uint64

// OpFlagsWord is the conventional opcode/flags word index.
const OpFlagsWord = NumArgWords - 1

// OpFlags packs an opcode and flags into the conventional word.
func OpFlags(op uint32, flags uint32) uint64 { return uint64(op)<<32 | uint64(flags) }

// Op extracts the opcode.
func Op(w uint64) uint32 { return uint32(w >> 32) }

// Flags extracts the flag bits.
func Flags(w uint64) uint32 { return uint32(w) }

// SetOp sets the conventional opcode/flags word.
func (a *Args) SetOp(op, flags uint32) { a[OpFlagsWord] = OpFlags(op, flags) }

// RC returns the conventional return-code word.
func (a *Args) RC() uint64 { return a[OpFlagsWord] }

// SetRC sets the conventional return-code word.
func (a *Args) SetRC(rc uint64) { a[OpFlagsWord] = rc }

// EntryPointID names a service entry point: a small integer indexing a
// fixed table, exactly as in the paper (§4.5.5). Authentication is the
// server's business, so IDs are safe to pass around.
type EntryPointID uint16

// MaxEntryPoints bounds the service table (1024, as in the paper).
const MaxEntryPoints = 1024

// Handler services a call. The handler runs on the *caller's*
// goroutine (hand-off scheduling is implicit, concurrency equals the
// number of callers); ctx carries identity and the recycled scratch
// buffer.
type Handler func(ctx *Ctx, args *Args)

// Common errors.
var (
	// ErrBadEntryPoint: call to an unbound entry point.
	ErrBadEntryPoint = fmt.Errorf("rt: bad entry point")
	// ErrKilled: call to a killed entry point.
	ErrKilled = fmt.Errorf("rt: entry point killed")
	// ErrPermissionDenied: rejected by the service's authorization.
	ErrPermissionDenied = fmt.Errorf("rt: permission denied")
	// ErrNameTaken: duplicate name registration.
	ErrNameTaken = fmt.Errorf("rt: name already registered")
	// ErrUnknownName: lookup of an unregistered name.
	ErrUnknownName = fmt.Errorf("rt: unknown name")
	// ErrServerFault: the handler panicked; the call was aborted and
	// contained, the service remains available.
	ErrServerFault = fmt.Errorf("rt: server fault")
	// ErrClosed: asynchronous submission after System.Close.
	ErrClosed = fmt.Errorf("rt: system closed")
	// ErrBackpressure: asynchronous submission with the shard queue
	// full and the worker pool saturated; the request was not accepted.
	ErrBackpressure = fmt.Errorf("rt: async queue full (backpressure)")
	// ErrDrainTimeout: CloseTimeout expired with async work still in
	// flight; workers finish in the background.
	ErrDrainTimeout = fmt.Errorf("rt: close timed out draining async work")
	// ErrDeadline: the call's deadline expired (or its context was
	// canceled) before the handler finished. For a synchronous deadline
	// call the handler may still be running when this is returned — the
	// call descriptor it runs on is quarantined until the handler
	// returns (see CallDeadline).
	ErrDeadline = fmt.Errorf("rt: call deadline exceeded")
	// ErrServiceUnhealthy: the service's health gate is open on this
	// shard (too many consecutive faults or deadline expirations); the
	// call was fast-failed without admission. The gate half-opens after
	// HealthConfig.ProbeAfter and recovers on a successful probe.
	ErrServiceUnhealthy = fmt.Errorf("rt: service unhealthy (health gate open)")
	// ErrShed: the request was load-shed before admission — a
	// best-effort submission found its lane ring full (criticality-
	// ordered shedding drops the cheapest class first, without the
	// bounded backpressure wait), or the client's tenant is over its
	// token-bucket budget. Transient, like ErrBackpressure: capacity
	// frees and buckets refill, so Retry backs off on it.
	ErrShed = fmt.Errorf("rt: request shed (lane overload or tenant budget)")
	// ErrClientAbandoned: operation on a client that was declared dead
	// (Client.Abandon, the leaked-client cleanup backstop, or a missed
	// liveness epoch) and whose resources the scavenger has reclaimed
	// or is reclaiming. Terminal for that client — not retryable;
	// construct a fresh client instead.
	ErrClientAbandoned = fmt.Errorf("rt: client abandoned")
)

// FaultError is the concrete error a panicking handler produces; it
// wraps ErrServerFault (errors.Is) and carries the recovered panic
// value (errors.As).
type FaultError struct {
	// Val is the value the handler panicked with.
	Val any
}

func (e *FaultError) Error() string { return fmt.Sprintf("rt: server fault: %v", e.Val) }

// Unwrap makes errors.Is(err, ErrServerFault) hold for every handler
// fault.
func (e *FaultError) Unwrap() error { return ErrServerFault }

// serviceState values.
const (
	svcActive int32 = iota
	svcSoftKilled
	svcDead
)

// ServiceConfig describes a service to bind.
type ServiceConfig struct {
	// Name is the diagnostic (and registrable) service name.
	Name string
	// Handler is the steady-state call handler.
	Handler Handler
	// InitHandler, when non-nil, runs on the first call serviced
	// through each shard's context, then is replaced by Handler —
	// the worker-initialization pattern of §4.5.3.
	InitHandler Handler
	// Authorize, when non-nil, vets the caller's program ID.
	Authorize func(callerProgram uint32) bool
	// ScratchBytes sizes the per-call scratch buffer (default 4096,
	// one "stack page").
	ScratchBytes int
	// EP requests a specific well-known entry point (0 = allocate).
	EP EntryPointID
	// Health, when non-nil, arms the per-shard health gate for this
	// service (see HealthConfig). Nil leaves health gating off and the
	// call paths untouched.
	Health *HealthConfig
	// Lane is the default criticality class for asynchronous requests
	// to this service (lane.go). LaneDefault (the zero value) means
	// LaneNormal. A client with its own lane (ClientOptions.Lane)
	// overrides the service default per request. Ignored unless the
	// System was built with Options.Lanes >= 2.
	Lane Lane
}

// Service is a bound entry point.
type Service struct {
	ep   EntryPointID
	name string

	//ppc:atomic
	state atomic.Int32
	//ppc:atomic
	handler atomic.Pointer[Handler]

	authorize    func(uint32) bool
	initHandler  Handler
	scratchBytes int
	// lane is the service's default criticality class (immutable after
	// Bind; LaneDefault resolves to LaneNormal at submit).
	lane Lane
	// health, non-nil when the service was bound with a HealthConfig,
	// is immutable after Bind; the call paths branch on the nil check
	// alone, so an unconfigured service pays one predictable branch.
	health *HealthConfig

	// quiesce, non-nil while a soft kill is draining, receives a
	// (coalesced) notification each time an admitted call completes or
	// backs out. Only the drain loop blocks on it; completers post
	// non-blocking, so the call path stays lock-free.
	//
	//ppc:atomic
	quiesce atomic.Pointer[chan struct{}]

	// Per-shard counters, padded: no call ever writes a cache line
	// another shard's calls write.
	perShard []shardCounters
}

// shardCounters keeps the submission side and the async completion
// side on separate cache lines: the synchronous caller writes
// admitted and syncDone (a sync call completes on the goroutine that
// admitted it, or on its deadline executor), the async submitter
// writes asyncAdm, the servicing async worker writes completed, and
// the worker never invalidates the submitters' line per request. The
// warm sync call therefore pays two RMWs, both on the one submission
// line. The in-flight count is the difference (admissions −
// completions), read only by control-plane code (kill drains, stats).
//
// Service.Calls is derived, not counted: every admitted sync call that
// reaches its handler bumps syncDone once, and the two failing exits
// of dispatch (authorization denied, handler panic) bump syncFail, so
// the successful sync calls are syncDone − syncFail with no per-call
// counter of their own.
//
// Async admissions have their own counter, asyncAdm, doing double duty
// as the AsyncCalls statistic: one increment per accepted request is
// both the admission and the count, so the submit fast path pays a
// single counter RMW. A rejected or backed-out submission decrements
// it again; at any quiescent point asyncAdm equals the number of
// requests ever accepted.
//
// The striping is machine-checked: //ppc:padded tells ppclint's layout
// analyzer to verify from real field offsets that each //ppc:hotline
// group owns its cache line(s) — a field insertion that silently
// pushes the completion counter back onto the submission line (which
// is exactly how this struct was laid out before the check existed)
// now fails the lint and the layout regression test.
//
//ppc:padded
type shardCounters struct {
	// Submission side: written by the admitting caller, and by the
	// goroutine that completes its synchronous call.
	//
	//ppc:hotline(submit)
	admitted atomic.Int64 // synchronous admissions
	//ppc:hotline(submit)
	syncDone atomic.Int64 // synchronous completions
	//ppc:hotline(submit)
	asyncAdm atomic.Int64
	//ppc:hotline(submit)
	authFail atomic.Int64
	//ppc:hotline(submit)
	backouts atomic.Int64
	//ppc:hotline(submit)
	syncFail atomic.Int64 // sync calls denied or faulted (cold)
	//ppc:hotline(submit)
	inited atomic.Bool
	_      [12]byte // pad the submission line; completion starts at 64

	// Async completion side: written by whichever goroutine settles an
	// async request — a worker on another processor, or the expiry
	// check at dequeue.
	//
	//ppc:hotline
	completed atomic.Int64
	_         [56]byte // keep the completion counter on its own line

	// Health stripe (see health.go), written only while the service has
	// a health gate configured. Unlike completed, the consecutive-
	// outcome counters have no single writer: every goroutine that
	// settles one of this service's calls on this shard writes them —
	// clients sharing the shard (NewClient round-robins), async
	// workers, deadline executors, and orphaning deadline callers.
	// Racing Store(0)/Add(1) pairs can lose or inflate an evidence run,
	// so the trip thresholds are an explicit heuristic (see the package
	// comment in health.go); the atomics keep the counters safe, not
	// exact.
	//
	//ppc:atomic
	//ppc:hotline(evidence)
	consecFaults atomic.Int32
	//ppc:atomic
	//ppc:hotline(evidence)
	consecTimeouts atomic.Int32
	_              [56]byte // keep completer-written health counters off the gate-state line

	// Gate state, written only on trip/probe/recover transitions, so
	// the per-call admission read (gateAdmit) hits a rarely-dirtied
	// line.
	//
	//ppc:atomic
	//ppc:hotline(gate)
	healthState atomic.Int32
	//ppc:atomic
	//ppc:hotline(gate)
	reopenAt atomic.Int64 // unix nanos after which a half-open probe may run
	//ppc:hotline(gate)
	healthTrips atomic.Int64
	//ppc:hotline(gate)
	healthRecovers atomic.Int64
	//ppc:hotline(gate)
	shedCalls atomic.Int64
	_         [24]byte // tile to 4 lines: perShard is a []shardCounters
}

// inFlight reads this shard's admitted-but-not-finished count. A
// racing reader can observe completions ahead of the admission
// counters and see a transiently negative value; control-plane loops
// compare the summed total against zero after the counters have
// stopped moving, where the difference is exact. The admissions are
// loaded first: a completion loaded later can only be of a call
// already counted, once a kill has stopped new admissions.
func (c *shardCounters) inFlight() int64 {
	return c.admitted.Load() + c.asyncAdm.Load() - c.syncDone.Load() - c.completed.Load()
}

// EP returns the entry point ID.
func (s *Service) EP() EntryPointID { return s.ep }

// Name returns the service name.
func (s *Service) Name() string { return s.name }

// Calls sums the successful synchronous calls: per shard, the sync
// completions less those that were denied or faulted. Exact once the
// service is quiescent; a racing read may be off by the calls in
// progress.
func (s *Service) Calls() int64 {
	var n int64
	for i := range s.perShard {
		n += s.perShard[i].syncDone.Load() - s.perShard[i].syncFail.Load()
	}
	return n
}

// AsyncCalls sums the per-shard asynchronous admission counters: the
// number of async requests ever accepted (a request being rejected or
// backed out increments and decrements, netting zero once settled).
func (s *Service) AsyncCalls() int64 {
	var n int64
	for i := range s.perShard {
		n += s.perShard[i].asyncAdm.Load()
	}
	return n
}

// AuthFailures sums the per-shard authorization failures.
func (s *Service) AuthFailures() int64 {
	var n int64
	for i := range s.perShard {
		n += s.perShard[i].authFail.Load()
	}
	return n
}

// KilledBackouts sums the calls that were admitted but backed out
// because a kill intervened between admission and execution.
func (s *Service) KilledBackouts() int64 {
	var n int64
	for i := range s.perShard {
		n += s.perShard[i].backouts.Load()
	}
	return n
}

// inFlightTotal sums admitted-but-not-finished calls: executing
// synchronous calls plus asynchronous requests accepted into a shard
// queue (used by the soft-kill drain).
func (s *Service) inFlightTotal() int64 {
	var n int64
	for i := range s.perShard {
		n += s.perShard[i].inFlight()
	}
	return n
}

// notifyQuiesce wakes a draining Kill, if one is waiting. Non-blocking:
// the channel is buffered and wakeups coalesce; the drain loop re-reads
// the counters after every wakeup or poll interval.
func (s *Service) notifyQuiesce() {
	if ch := s.quiesce.Load(); ch != nil {
		select {
		case *ch <- struct{}{}:
		default:
		}
	}
}

// backOut undoes a synchronous admission that lost the race with a
// kill.
//
//ppc:coldpath -- a kill intervened; the call is already failing
func (s *Service) backOut(counters *shardCounters) {
	counters.backouts.Add(1)
	counters.admitted.Add(-1)
	s.notifyQuiesce()
}

// backOutAsync undoes an asynchronous admission that lost the race
// with a kill — whether it never reached the queue or was discarded
// from it by a hard kill.
//
//ppc:coldpath -- a kill intervened; the request is already failing
func (s *Service) backOutAsync(counters *shardCounters) {
	counters.backouts.Add(1)
	counters.asyncAdm.Add(-1)
	s.notifyQuiesce()
}

// backOutN undoes a batch admission that lost the race with a kill:
// every request in the batch is counted as a backout, exactly as n
// single-call back-outs would be.
//
//ppc:coldpath -- a kill intervened; the batch is already failing
func (s *Service) backOutN(counters *shardCounters, n int) {
	counters.backouts.Add(int64(n))
	counters.asyncAdm.Add(-int64(n))
	s.notifyQuiesce()
}

// unadmit releases the in-flight admissions of requests a shard
// rejected (backpressure or close). They were never accepted, so they
// are not kill backouts — mirroring the single-call rejection path.
//
//ppc:coldpath -- runs only when the shard rejected part of a batch
func (s *Service) unadmit(counters *shardCounters, n int) {
	counters.asyncAdm.Add(-int64(n))
	s.notifyQuiesce()
}

// System is the PPC facility instance.
type System struct {
	shards []shard

	// services is the authoritative (control-plane) service table; the
	// call path reads the per-shard replicas (shard.tab) instead, so
	// this array is never on a fast path.
	services [MaxEntryPoints]atomic.Pointer[Service]

	// Control plane (binding, naming): mutex-protected — never on the
	// call fast path.
	mu       sync.Mutex
	nextEP   EntryPointID
	names    map[string]EntryPointID
	bindSeq  atomic.Uint64
	programs atomic.Uint32
	closed   atomic.Bool
	// closeEpoch advances when Close drains the system. Held call
	// descriptors record the epoch at acquisition and Release validates
	// it: a descriptor held across Close is dropped, never pushed back
	// into a drained shard's pool.
	//
	//ppc:atomic
	closeEpoch atomic.Uint64

	// fhooks is the always-on fault-injection hook registry
	// (faultinject.go): one predictable atomic-bool load per guarded
	// site when no hook is installed.
	fhooks faultHooks
}

// Close shuts the system down: asynchronous submissions are rejected,
// the per-shard async workers drain the requests already accepted, and
// Close joins every worker before returning — afterwards Stats reports
// zero AsyncWorkers. Synchronous calls still work (they use no
// goroutines); Close exists so embedding programs do not leak workers.
// Close blocks for as long as in-flight handlers run; use CloseTimeout
// to bound the wait.
func (s *System) Close() {
	_ = s.CloseTimeout(0)
}

// CloseTimeout is Close with a bounded drain: it waits at most d for
// the async workers to finish and exit (d <= 0 waits indefinitely).
// If the deadline expires it returns ErrDrainTimeout; the workers keep
// draining in the background and exit when their handlers return.
// Idempotent; later calls return nil without waiting again.
func (s *System) CloseTimeout(d time.Duration) error {
	if s.closed.Swap(true) {
		return nil
	}
	s.closeEpoch.Add(1)
	var deadline time.Time
	if d > 0 {
		deadline = time.Now().Add(d)
	}
	drained := true
	for i := range s.shards {
		if !s.shards[i].close(s, deadline) {
			drained = false
		}
	}
	if !drained {
		return ErrDrainTimeout
	}
	return nil
}

// firstDynamicEP matches the simulator's reserved IDs.
const firstDynamicEP EntryPointID = 2

// Options configures a System beyond the shard count. The zero value
// of every field means "use the default"; see the field comments for
// the defaults.
type Options struct {
	// Shards is the shard count (default: GOMAXPROCS).
	Shards int
	// WorkerStallThreshold is how long an async worker may sit inside
	// one request batch before the shard watchdog counts it stuck and
	// spawns a replacement (default defaultStallThreshold). Negative
	// disables supervision.
	WorkerStallThreshold time.Duration
	// WatchdogInterval is the supervision scan period (default
	// defaultWatchdogInterval).
	WatchdogInterval time.Duration
	// MaxWorkerReplacements bounds how many replacement workers a
	// shard may run beyond its normal worker cap at once (default
	// defaultMaxReplacements). Negative disables replacements while
	// keeping stall detection.
	MaxWorkerReplacements int
	// DeadlineWheelGranularity is the tick width of the per-shard
	// deadline timer wheel (default defaultWheelGranularity, floored
	// at minWheelGranularity). Arming rounds the expiry up by one
	// granularity, and expiry detection runs on the tick, so an
	// expired CallDeadline is settled at most ~2 ticks after its
	// deadline and never before the deadline has elapsed. Finer ticks
	// tighten expiry latency at the cost of more frequent watchdog
	// wakeups while any deadline-capable client exists.
	DeadlineWheelGranularity time.Duration
	// OffloadThreshold is the AttachBytes transfer size (bytes) at
	// which the copy is staged on the shard's offload lane instead of
	// performed inline on the caller (default defaultOffloadThreshold,
	// ~64 KB). Negative disables the lane: every AttachBytes copies
	// inline. Payload descriptors and arena-backed zero-copy segments
	// (AllocPayload) are unaffected either way.
	OffloadThreshold int
	// Lanes is the number of async priority lanes per shard (lane.go).
	// 0 or 1 keeps the single ring — the lane-free fast path, bit-for-
	// bit the previous behavior. 2 or 3 splits the shard's async queue
	// into per-criticality Vyukov rings with weighted batched dequeue
	// and criticality-ordered shedding; values above NumLaneClasses
	// clamp to it.
	Lanes int
	// LaneWeights overrides the per-lane drain quanta, indexed by
	// priority (0 critical, 1 normal, 2 best-effort): a worker grants
	// up to LaneWeights[i] requests to lane i before falling to the
	// next class. Zero or negative entries keep that lane's default
	// (defaultLaneWeights: 16/4/1). Ignored unless Lanes >= 2.
	LaneWeights [NumLaneClasses]int
	// AsyncQueueCap sizes each async ring — the single ring, or each
	// lane's ring when Lanes >= 2 (default defaultAsyncQueueCap,
	// rounded up to a power of two).
	AsyncQueueCap int
	// MaxWorkers bounds each shard's async worker pool (default
	// defaultMaxWorkers). On a box with fewer processors than workers,
	// extra CPU-bound workers add no service capacity but do hold
	// claimed batches while descheduled — latency-sensitive setups may
	// want exactly one worker per shard.
	MaxWorkers int
	// CooperativeYield makes each worker yield the processor once per
	// serviced batch. On a single-P runtime with producers that sleep
	// between arrivals, a CPU-bound worker otherwise runs whole
	// scheduler quanta (~10ms) while submitters — critical-lane ones
	// included — sit runnable but unable to publish; the per-batch
	// yield bounds cross-lane submit latency by one batch service
	// time (EXPERIMENTS.md E17). Deliberately opt-in: under CPU-bound
	// producers that never sleep, the same yield hands each of them a
	// full scheduler quantum and starves the worker instead
	// (TestChaosLaneStorm pins that regime).
	CooperativeYield bool
}

// NewSystem creates a facility with one shard per GOMAXPROCS slot.
func NewSystem() *System { return NewSystemShards(runtime.GOMAXPROCS(0)) }

// NewSystemShards creates a facility with an explicit shard count.
func NewSystemShards(n int) *System {
	if n < 1 {
		n = 1
	}
	return NewSystemOptions(Options{Shards: n})
}

// NewSystemOptions creates a facility with explicit Options.
func NewSystemOptions(o Options) *System {
	n := o.Shards
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	s := &System{
		shards: make([]shard, n),
		nextEP: firstDynamicEP,
		names:  make(map[string]EntryPointID),
	}
	for i := range s.shards {
		s.shards[i].init(i)
		if o.MaxWorkers > 0 {
			s.shards[i].maxWorkers = int64(o.MaxWorkers)
		}
		s.shards[i].yieldPerBatch = o.CooperativeYield
		s.shards[i].configureLanes(o)
		s.shards[i].configureWatchdog(o)
		s.shards[i].configureArena(o)
		s.shards[i].reg = newClientRegistry(s, &s.shards[i])
	}
	s.programs.Store(1)
	return s
}

// NumShards returns the shard count.
func (s *System) NumShards() int { return len(s.shards) }

// Bind creates a service via the control plane and installs it in the
// lock-free service table.
func (s *System) Bind(cfg ServiceConfig) (*Service, error) {
	if cfg.Handler == nil {
		return nil, fmt.Errorf("rt: service %q needs a handler", cfg.Name)
	}
	if cfg.ScratchBytes < 0 {
		return nil, fmt.Errorf("rt: service %q negative scratch", cfg.Name)
	}
	if cfg.Lane > LaneBestEffort {
		return nil, fmt.Errorf("rt: service %q invalid lane %d", cfg.Name, cfg.Lane)
	}
	scratch := cfg.ScratchBytes
	if scratch == 0 {
		scratch = defaultScratchBytes
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	ep := cfg.EP
	if ep == 0 {
		found := false
		for scanned := 0; scanned < MaxEntryPoints; scanned++ {
			cand := s.nextEP
			s.nextEP++
			if s.nextEP >= MaxEntryPoints {
				s.nextEP = firstDynamicEP
			}
			if s.services[cand].Load() == nil {
				ep, found = cand, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("rt: all %d entry points in use", MaxEntryPoints)
		}
	} else {
		if int(ep) >= MaxEntryPoints {
			return nil, fmt.Errorf("rt: entry point %d out of range", ep)
		}
		if s.services[ep].Load() != nil {
			return nil, fmt.Errorf("rt: entry point %d already bound", ep)
		}
	}

	svc := &Service{
		ep:           ep,
		name:         cfg.Name,
		authorize:    cfg.Authorize,
		initHandler:  cfg.InitHandler,
		scratchBytes: scratch,
		lane:         cfg.Lane,
		health:       normalizeHealth(cfg.Health),
		perShard:     make([]shardCounters, len(s.shards)),
	}
	h := cfg.Handler
	svc.handler.Store(&h)
	svc.state.Store(svcActive)
	s.publishAll(svc, h)
	s.services[ep].Store(svc)
	return svc, nil
}

// publishAll installs svc into every shard's service-table replica
// (§4.5.5). Each shard gets its own freshly-allocated entry — the
// entry a shard's calls dereference is never written again, and never
// read by another shard. Caller holds s.mu.
func (s *System) publishAll(svc *Service, h Handler) {
	for i := range s.shards {
		s.shards[i].publish(svc.ep, &epEntry{svc: svc, h: h, counters: &svc.perShard[i]})
	}
}

// retractAll removes ep from every shard replica and the authoritative
// table, taking the control-plane mutex so retraction is serialized
// against Bind/Exchange publication.
func (s *System) retractAll(ep EntryPointID) {
	s.mu.Lock()
	for i := range s.shards {
		s.shards[i].retract(ep)
	}
	s.services[ep].Store(nil)
	s.mu.Unlock()
}

// Service returns the service at ep, or nil.
func (s *System) Service(ep EntryPointID) *Service {
	if int(ep) >= MaxEntryPoints {
		return nil
	}
	return s.services[ep].Load()
}

// Exchange atomically replaces the handler behind an entry point —
// on-line server replacement (§4.5.2): calls in progress finish on the
// handler they resolved; new calls get the new one. The swap is
// published to every shard's service-table replica under the
// control-plane mutex, so by the time Exchange returns every shard
// resolves the new handler (shards observe the swap in publication
// order while it is in progress).
func (s *System) Exchange(ep EntryPointID, h Handler) error {
	if h == nil {
		return fmt.Errorf("rt: nil handler")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	svc := s.Service(ep)
	if svc == nil || svc.state.Load() != svcActive {
		return ErrBadEntryPoint
	}
	svc.handler.Store(&h)
	s.publishAll(svc, h)
	return nil
}

// killPollInterval bounds how long the soft-kill drain sleeps between
// re-checks when a completion notification is missed (completers that
// loaded the service state just before the kill do not notify).
const killPollInterval = 100 * time.Microsecond

// Kill deallocates an entry point. Soft kill (hard=false) stops new
// calls immediately and waits for every admitted call to drain —
// executing synchronous calls and asynchronous requests already
// accepted into shard queues alike; once Kill returns, no call of the
// service will ever execute. Hard kill marks the entry dead at once
// (§4.5.2); asynchronous requests still queued are discarded.
//
// The drain is notification-based, not a busy-spin: completing calls
// wake the drain through the service's quiesce channel, with a bounded
// poll as the backstop for notifications that race the kill itself.
func (s *System) Kill(ep EntryPointID, hard bool) error {
	svc := s.Service(ep)
	if svc == nil || svc.state.Load() == svcDead {
		return ErrBadEntryPoint
	}
	if hard {
		svc.state.Store(svcDead)
		s.retractAll(ep)
		return nil
	}
	ch := make(chan struct{}, 1)
	svc.quiesce.Store(&ch)
	svc.state.Store(svcSoftKilled)
	if svc.inFlightTotal() != 0 {
		// One timer serves the whole drain, reset only after it fires —
		// no per-iteration timer allocation. Between notifications it
		// keeps running as the poll backstop.
		timer := time.NewTimer(killPollInterval)
		for svc.inFlightTotal() != 0 {
			select {
			case <-ch:
			case <-timer.C:
				timer.Reset(killPollInterval)
			}
		}
		timer.Stop()
	}
	svc.state.Store(svcDead)
	svc.quiesce.Store(nil)
	s.retractAll(ep)
	return nil
}

// Register binds a name to an entry point (the name-server role).
func (s *System) Register(name string, ep EntryPointID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.names[name]; dup {
		return ErrNameTaken
	}
	s.names[name] = ep
	return nil
}

// Lookup resolves a registered name.
func (s *System) Lookup(name string) (EntryPointID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ep, ok := s.names[name]
	if !ok {
		return 0, ErrUnknownName
	}
	return ep, nil
}

// ShardStats reports one shard's pool and async lifecycle state.
type ShardStats struct {
	Shard      int
	CDsCreated int64
	PooledCDs  int
	// HeldCDs is the number of call descriptors currently pinned by
	// clients in held-CD mode (acquired by Hold or the first Call, not
	// yet Released); they are outside the free pool while held.
	HeldCDs int64
	// AsyncWorkers is the number of live async worker goroutines;
	// zero after Close has drained the shard.
	AsyncWorkers int64
	// WorkerExits counts workers that have terminated (all of them,
	// after Close).
	WorkerExits int64
	// AsyncQueueDepth is the number of accepted asynchronous requests
	// not yet picked up by a worker; AsyncQueueCap is the queue bound.
	AsyncQueueDepth int
	AsyncQueueCap   int
	// BackpressureRejects counts asynchronous submissions rejected
	// with ErrBackpressure — nonzero means the shard has been
	// overloaded past its queue and worker bounds.
	BackpressureRejects int64
	// LaneDepth is the per-lane queue depth by priority index
	// (0 critical, 1 normal, 2 best-effort); all zero on a single-lane
	// shard (whose depth is AsyncQueueDepth).
	LaneDepth [NumLaneClasses]int
	// ShedByLane counts submissions rejected at each lane's full ring
	// — immediate ErrShed for best-effort, bounded-wait
	// ErrBackpressure for the classes above it. Criticality-ordered
	// shedding shows up here as the best-effort entry growing first.
	ShedByLane [NumLaneClasses]int64
	// TenantThrottled counts submissions shed with ErrShed because the
	// client's tenant was over its token-bucket budget on this shard.
	TenantThrottled int64
	// NotifyDrops counts completion notifications dropped because
	// their channel had no receiver within the bounded notify wait —
	// nonzero usually means an unbuffered (or abandoned) channel was
	// passed to AsyncCallNotify.
	NotifyDrops int64
	// StuckWorkers is the number of async workers currently stalled
	// past the stall threshold (a gauge, maintained by the watchdog).
	StuckWorkers int64
	// ReplacementsSpawned / ReplacementsReclaimed count the extra
	// workers the watchdog started to cover stuck ones, and the
	// surplus workers retired after the stuck ones returned.
	ReplacementsSpawned   int64
	ReplacementsReclaimed int64
	// QuarantinedCDs is the number of call descriptors orphaned by an
	// expired deadline whose handler has not returned yet (a gauge; the
	// servicing goroutine reclaims each on handler return).
	QuarantinedCDs int64
	// DeadlineExpirations counts calls that failed with ErrDeadline on
	// this shard — synchronous orphans and asynchronous requests
	// discarded at dequeue alike.
	DeadlineExpirations int64
	// HealthTrips / HealthRecovers sum, over every service, this
	// shard's health-gate trips into the degraded state and recoveries
	// out of it; ShedCalls counts the calls the open gate fast-failed
	// with ErrServiceUnhealthy.
	HealthTrips    int64
	HealthRecovers int64
	ShedCalls      int64
	// LeasesActive is the number of payload leases currently held on
	// the shard's arena (a gauge; zero once every call touching a
	// payload has settled — including quarantined orphans, whose lease
	// is dropped by whoever reclaims the CD).
	LeasesActive int64
	// OffloadedBytes counts payload bytes copied through the shard's
	// offload lane (staged AttachBytes transfers), by whichever copier
	// landed them — the worker or a stealing viewer.
	OffloadedBytes int64
	// OffloadQueueDepth is the number of staged copies whose bytes have
	// not landed yet (a gauge).
	OffloadQueueDepth int
	// ArenaGrows counts arena slab allocations beyond the first — the
	// strictly-cold growth path, like CDsCreated for the CD pool.
	ArenaGrows int64
	// AbandonedClients counts clients declared dead on this shard —
	// by Client.Abandon, the leaked-client cleanup backstop, or a
	// missed liveness epoch — and handed to the scavenger.
	AbandonedClients int64
	// ScavengedCDs counts held call descriptors the scavenger
	// reclaimed from dead clients (ownership CAS won from owHeld).
	ScavengedCDs int64
	// ScavengedLeases counts payload leases (tracked allocations and
	// batch-staged transfers) the scavenger released for dead clients.
	ScavengedLeases int64
	// TombstonedCompletions counts call completions that found their
	// client dead at exit: the finishing goroutine tombstoned the CD
	// (or lost the race to the scavenger's reclaim CAS) instead of
	// handing it back to a reclaimed owner.
	TombstonedCompletions int64
}

// Stats returns per-shard pool statistics (diagnostics; walks the
// pools and the service table, not for the hot path).
//
//ppc:coldpath -- diagnostics walk, deliberately off the call path
func (s *System) Stats() []ShardStats {
	out := make([]ShardStats, len(s.shards))
	for i := range s.shards {
		out[i] = s.shards[i].stats(i)
		// Health gating is striped per service; fold every service's
		// shard-i stripe into the shard view.
		for ep := range s.services {
			svc := s.services[ep].Load()
			if svc == nil || svc.health == nil {
				continue
			}
			c := &svc.perShard[i]
			out[i].HealthTrips += c.healthTrips.Load()
			out[i].HealthRecovers += c.healthRecovers.Load()
			out[i].ShedCalls += c.shedCalls.Load()
		}
	}
	return out
}
