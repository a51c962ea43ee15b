package rt

import (
	"reflect"
	"testing"
	"unsafe"
)

// These tests pin the cache-line layout facts that the //ppc:padded /
// //ppc:hotline annotations assert and ppclint's layout analyzer
// verifies from go/types offsets. They repeat the check with the
// compiler's own unsafe.Offsetof/Sizeof so that a field insertion that
// silently re-shapes a hot struct fails plain `go test`, even in an
// environment that never runs the lint.
//
// If one of these fails after an intentional layout change, fix the
// struct's padding so the isolation invariant holds again (and run
// `go run ./tools/ppclint ./rt/...` — it diagnoses which line is
// shared); do not just update the numbers here.

const lineBytes = 64

// namedFieldsOnLine lists struct type typ's named fields, other than
// except, that have a byte on cache line `line` of the struct.
func namedFieldsOnLine(typ reflect.Type, line uintptr, except string) []string {
	var names []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "_" || f.Name == except || f.Type.Size() == 0 {
			continue
		}
		if f.Offset/lineBytes <= line && line <= (f.Offset+f.Type.Size()-1)/lineBytes {
			names = append(names, f.Name)
		}
	}
	return names
}

// TestRingLayout pins the async ring: each cursor owns its own cache
// line and the struct tiles whole lines so embedding it 64-aligned
// (shard.ring) preserves the isolation.
func TestRingLayout(t *testing.T) {
	var r asyncRing
	if s := unsafe.Sizeof(r); s%lineBytes != 0 {
		t.Errorf("asyncRing size %d is not a multiple of %d", s, lineBytes)
	}
	enq, deq := unsafe.Offsetof(r.enq), unsafe.Offsetof(r.deq)
	if enq%lineBytes != 0 {
		t.Errorf("enq at offset %d is not line-aligned", enq)
	}
	if deq%lineBytes != 0 {
		t.Errorf("deq at offset %d is not line-aligned", deq)
	}
	if enq/lineBytes == deq/lineBytes {
		t.Errorf("enq (offset %d) and deq (offset %d) share a cache line", enq, deq)
	}

	// The slot's publish word leads the slot: the producer's seq store
	// and the consumer's seq load hit the same line as the request they
	// order, which is the point — one line per handoff.
	var sl ringSlot
	if off := unsafe.Offsetof(sl.seq); off != 0 {
		t.Errorf("ringSlot.seq at offset %d, want 0", off)
	}
	if unsafe.Offsetof(sl.req) <= unsafe.Offsetof(sl.seq) {
		t.Error("ringSlot.req does not follow seq")
	}
}

// TestCountersLayout pins the shardCounters striping: submission,
// async completion, health evidence, and gate state each own a line,
// and the struct tiles 64 bytes because Service.perShard is a
// []shardCounters.
//
// The completion offset is the regression this file exists for: before
// the layout analyzer, `completed` sat at offset 56 — on the line every
// admitting caller writes — so each async completion invalidated the
// submitters' counter line. The sync completion (syncDone) is the
// opposite case: it belongs on the submission line, so the warm sync
// call's admission and completion RMWs hit one line the caller owns.
func TestCountersLayout(t *testing.T) {
	var c shardCounters
	if s := unsafe.Sizeof(c); s%lineBytes != 0 {
		t.Errorf("shardCounters size %d is not a multiple of %d", s, lineBytes)
	}
	lineOf := func(off uintptr) uintptr { return off / lineBytes }
	submit := lineOf(unsafe.Offsetof(c.admitted))
	for name, off := range map[string]uintptr{
		"syncDone": unsafe.Offsetof(c.syncDone),
		"syncFail": unsafe.Offsetof(c.syncFail),
		"asyncAdm": unsafe.Offsetof(c.asyncAdm),
		"authFail": unsafe.Offsetof(c.authFail),
		"backouts": unsafe.Offsetof(c.backouts),
		"inited":   unsafe.Offsetof(c.inited),
	} {
		if lineOf(off) != submit {
			t.Errorf("%s (offset %d) left the submission line", name, off)
		}
	}
	completed := lineOf(unsafe.Offsetof(c.completed))
	evidence := lineOf(unsafe.Offsetof(c.consecFaults))
	gate := lineOf(unsafe.Offsetof(c.healthState))
	if completed == submit {
		t.Errorf("completed (offset %d) shares the submission line", unsafe.Offsetof(c.completed))
	}
	if others := namedFieldsOnLine(reflect.TypeFor[shardCounters](), completed, "completed"); len(others) != 0 {
		t.Errorf("completed shares its line with %v; only async completions may write it", others)
	}
	if evidence == completed || evidence == submit {
		t.Errorf("consecFaults (offset %d) shares a line with another stripe", unsafe.Offsetof(c.consecFaults))
	}
	if lineOf(unsafe.Offsetof(c.consecTimeouts)) != evidence {
		t.Error("consecTimeouts left the evidence line")
	}
	if gate == evidence || gate == completed || gate == submit {
		t.Errorf("healthState (offset %d) shares a line with another stripe", unsafe.Offsetof(c.healthState))
	}
	for name, off := range map[string]uintptr{
		"reopenAt":       unsafe.Offsetof(c.reopenAt),
		"healthTrips":    unsafe.Offsetof(c.healthTrips),
		"healthRecovers": unsafe.Offsetof(c.healthRecovers),
		"shedCalls":      unsafe.Offsetof(c.shedCalls),
	} {
		if lineOf(off) != gate {
			t.Errorf("%s (offset %d) left the gate line", name, off)
		}
	}
}

// TestCallDescLayout pins the call descriptor's line isolation. Every
// warm call writes its descriptor (dispatch fills ctx, the held path
// re-slices scratch), and descriptors allocated back to back — every
// client built and held on one goroutine — were 112 bytes apart before
// the pad, so neighbouring clients' calls false-shared a line. At
// exactly 128 bytes the descriptor sits in a size class that is whole
// lines: it starts on a line boundary and no neighbour reaches either
// of its lines.
func TestCallDescLayout(t *testing.T) {
	var cd callDesc
	const size = 2 * lineBytes
	if s := unsafe.Sizeof(cd); s != size {
		t.Errorf("callDesc size %d, want exactly %d (a size class of whole lines)", s, size)
	}
	// The per-call-written fields: ctx owns line 0, scratch sits
	// wholly on line 1. With a line-aligned base (checked below), no
	// neighbouring descriptor reaches either line.
	if off := unsafe.Offsetof(cd.ctx); off != 0 {
		t.Errorf("ctx at offset %d, want 0", off)
	}
	if others := namedFieldsOnLine(reflect.TypeFor[callDesc](), 0, "ctx"); len(others) != 0 {
		t.Errorf("ctx shares line 0 with %v", others)
	}
	if lo, hi := unsafe.Offsetof(cd.scratch), unsafe.Offsetof(cd.scratch)+unsafe.Sizeof(cd.scratch)-1; lo/lineBytes != 1 || hi/lineBytes != 1 {
		t.Errorf("scratch (bytes %d-%d) is not wholly on line 1", lo, hi)
	}

	// The fix relies on the allocator: a 128-byte object comes from a
	// size class whose slots are 128 bytes apart in a page-aligned span.
	// Allocate descriptors back to back on one goroutine — the layout
	// rtperf's callpath and BenchmarkRTCallParallelSetupHeld build — and
	// check each starts on a line.
	sys := NewSystemShards(1)
	defer sys.Close()
	sh := &sys.shards[0]
	cds := make([]*callDesc, 64)
	for i := range cds {
		cds[i] = sh.newCD(defaultScratchBytes)
	}
	for i, p := range cds {
		if addr := uintptr(unsafe.Pointer(p)); addr%lineBytes != 0 {
			t.Errorf("descriptor %d at %#x is not line-aligned", i, addr)
		}
	}
}

// TestWheelLayout pins the deadline machinery's shared-clock line and
// the wheel node's shape.
func TestWheelLayout(t *testing.T) {
	var cl coarseClock
	if s := unsafe.Sizeof(cl); s != lineBytes {
		t.Errorf("coarseClock size %d, want exactly one line", s)
	}
	if off := unsafe.Offsetof(cl.ns); off != 0 {
		t.Errorf("coarseClock.ns at offset %d, want 0", off)
	}

	// dlNode is deliberately unpadded (one node per executor, reached
	// via pointers), but the wheel's bucket-walk reads next/deadline
	// together; pin the field order so an insertion that splits them
	// across lines is a conscious decision.
	var n dlNode
	if off := unsafe.Offsetof(n.next); off != 0 {
		t.Errorf("dlNode.next at offset %d, want 0", off)
	}
	if unsafe.Sizeof(n) > lineBytes {
		t.Errorf("dlNode size %d no longer fits one cache line", unsafe.Sizeof(n))
	}
}

// TestBeatLayout pins the heartbeat tiling: shard.beats is a
// []workerBeat, so each beat must occupy exactly one line or
// neighbouring workers false-share their heartbeat stores.
func TestBeatLayout(t *testing.T) {
	var b workerBeat
	if s := unsafe.Sizeof(b); s != lineBytes {
		t.Errorf("workerBeat size %d, want exactly one line", s)
	}
}

// TestShardLayout pins the shard's hot-field isolation: the pool head,
// the wake pair, and the submit gate each own a line; the embedded
// padded structs (ring, clock) start line-aligned so their internal
// isolation is not sheared; and the whole shard tiles 64 bytes because
// System.shards is a []shard.
func TestShardLayout(t *testing.T) {
	var s shard
	if sz := unsafe.Sizeof(s); sz%lineBytes != 0 {
		t.Errorf("shard size %d is not a multiple of %d", sz, lineBytes)
	}
	lineOf := func(off uintptr) uintptr { return off / lineBytes }
	free := unsafe.Offsetof(s.free)
	if free%lineBytes != 0 {
		t.Errorf("free at offset %d is not line-aligned", free)
	}
	if lineOf(unsafe.Offsetof(s.tab)) == lineOf(free) {
		t.Error("free shares its line with the service-table header again")
	}
	if off := unsafe.Offsetof(s.ring); off%lineBytes != 0 {
		t.Errorf("ring at offset %d shears its internal cursor isolation", off)
	}
	if off := unsafe.Offsetof(s.clock); off%lineBytes != 0 {
		t.Errorf("clock at offset %d shears its internal padding", off)
	}
	wake := lineOf(unsafe.Offsetof(s.doorbell))
	if lineOf(unsafe.Offsetof(s.parked)) != wake {
		t.Error("doorbell and parked no longer share the wake line")
	}
	submitting := lineOf(unsafe.Offsetof(s.submitting))
	for name, off := range map[string]uintptr{
		"free":  free,
		"ring":  unsafe.Offsetof(s.ring),
		"stop":  unsafe.Offsetof(s.stop),
		"clock": unsafe.Offsetof(s.clock),
	} {
		if lineOf(off) == submitting || lineOf(off) == wake {
			t.Errorf("%s (offset %d) shares a line with a hot field", name, off)
		}
	}
	if submitting == wake {
		t.Error("submitting shares the wake line")
	}
	if off := unsafe.Offsetof(s.arena); off%lineBytes != 0 {
		t.Errorf("arena at offset %d shears its internal cur-line isolation", off)
	}
}

// TestLaneLayout pins the lane tiling: shard.lanes is a []laneRing, so
// each lane must tile whole lines (or neighbouring lanes shear the
// embedded rings' cursor isolation), the embedded ring must start the
// struct so its internal padding survives the array stride, and the
// shed counter — written by overloading submitters — must not share a
// line with the next lane's ring header.
func TestLaneLayout(t *testing.T) {
	var lr laneRing
	if sz := unsafe.Sizeof(lr); sz%lineBytes != 0 {
		t.Errorf("laneRing size %d is not a multiple of %d", sz, lineBytes)
	}
	if off := unsafe.Offsetof(lr.ring); off != 0 {
		t.Errorf("laneRing.ring at offset %d, want 0 (array stride must preserve ring alignment)", off)
	}
	shed := unsafe.Offsetof(lr.shed)
	if shed%lineBytes != 0 {
		t.Errorf("shed at offset %d is not line-aligned", shed)
	}
	if shed/lineBytes == unsafe.Offsetof(lr.ring)/lineBytes {
		t.Error("shed shares the ring header's line")
	}
}

// TestTenantBucketLayout pins the token bucket's striping: the token
// word (every admitted call's fetch-add) and the refill cursor (the
// watchdog tick's CAS) each own a line, the immutable rate config sits
// on neither, and the struct tiles whole lines so an embedding change
// cannot silently shear the token line.
func TestTenantBucketLayout(t *testing.T) {
	var b tenantBucket
	if sz := unsafe.Sizeof(b); sz%lineBytes != 0 {
		t.Errorf("tenantBucket size %d is not a multiple of %d", sz, lineBytes)
	}
	lineOf := func(off uintptr) uintptr { return off / lineBytes }
	tokens := unsafe.Offsetof(b.tokens)
	refill := unsafe.Offsetof(b.lastRefill)
	if tokens%lineBytes != 0 {
		t.Errorf("tokens at offset %d is not line-aligned", tokens)
	}
	if refill%lineBytes != 0 {
		t.Errorf("lastRefill at offset %d is not line-aligned", refill)
	}
	if lineOf(tokens) == lineOf(refill) {
		t.Error("tokens and lastRefill share a line: admitters and the refiller false-share")
	}
	for name, off := range map[string]uintptr{
		"interval": unsafe.Offsetof(b.interval),
		"burst":    unsafe.Offsetof(b.burst),
	} {
		if lineOf(off) == lineOf(tokens) || lineOf(off) == lineOf(refill) {
			t.Errorf("%s (offset %d) shares a line with a hot word", name, off)
		}
	}
}

// TestArenaLayout pins the payload arena's striping. A slab's bump
// cursor (written by the shard-bound allocator on every lease) and its
// lease counter (written by whatever goroutine settles each call —
// async workers, deadline executors, the offload worker) must each own
// a line, with the read-mostly metadata off both; the whole slab tiles
// 64 bytes. The arena header's cur pointer — the one word the warm
// alloc loads — owns its line, and shardArena tiles whole lines so its
// by-value embedding in shard cannot shear it.
func TestArenaLayout(t *testing.T) {
	var s arenaSlab
	if sz := unsafe.Sizeof(s); sz%lineBytes != 0 {
		t.Errorf("arenaSlab size %d is not a multiple of %d", sz, lineBytes)
	}
	lineOf := func(off uintptr) uintptr { return off / lineBytes }
	bump := unsafe.Offsetof(s.bump)
	leases := unsafe.Offsetof(s.leases)
	if bump%lineBytes != 0 {
		t.Errorf("bump at offset %d is not line-aligned", bump)
	}
	if leases%lineBytes != 0 {
		t.Errorf("leases at offset %d is not line-aligned", leases)
	}
	if lineOf(bump) == lineOf(leases) {
		t.Error("bump and leases share a line: allocator and releasers false-share")
	}
	for name, off := range map[string]uintptr{
		"buf":   unsafe.Offsetof(s.buf),
		"gen":   unsafe.Offsetof(s.gen),
		"state": unsafe.Offsetof(s.state),
	} {
		if lineOf(off) == lineOf(bump) || lineOf(off) == lineOf(leases) {
			t.Errorf("%s (offset %d) shares a line with a hot cursor", name, off)
		}
	}

	var a shardArena
	if sz := unsafe.Sizeof(a); sz%lineBytes != 0 {
		t.Errorf("shardArena size %d is not a multiple of %d", sz, lineBytes)
	}
	if off := unsafe.Offsetof(a.cur); off != 0 {
		t.Errorf("cur at offset %d, want 0 (the warm alloc's only load)", off)
	}
	if lineOf(unsafe.Offsetof(a.tab)) == lineOf(unsafe.Offsetof(a.cur)) {
		t.Error("tab shares cur's line: refill republish invalidates the warm alloc line")
	}
}

// TestOffloadLayout pins the staging slot tiling: offloadLane.slots is
// an array, so each job must occupy exactly one line or neighbouring
// producers and copiers false-share their handoffs — the same rule as
// ringSlot and workerBeat.
func TestOffloadLayout(t *testing.T) {
	var j offloadJob
	if sz := unsafe.Sizeof(j); sz != lineBytes {
		t.Errorf("offloadJob size %d, want exactly one line", sz)
	}
	var l offloadLane
	if off := unsafe.Offsetof(l.slots); off%8 != 0 {
		t.Errorf("slots at offset %d is not word-aligned", off)
	}
}
