package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hurricane/rt"
)

// The rpc workload: a closed loop with nproc callers. Every call is a
// CallDeadline with a generous deadline carrying one payload from a
// seeded size mix (64 B 70%, 4 KB 24%, 64 KB 4%, 1 MB 2%, so p50 and
// p99 fall inside a size class). Half the payloads are built in place
// in arena memory (AllocPayload); the other half are copied in by
// AttachBytes, which stages sizes from 64 KB up on the offload lane.
// Each call also appends one audit record to a second service through
// a Batch with a deadline, flushed every 16 records. Default Options: a
// single-lane System with one shard per GOMAXPROCS slot.

const (
	rpcDeadline   = time.Second
	auditDeadline = 2 * time.Second
	auditEvery    = 16
	// rpcIDBits sizes each caller's request id range; an id past it
	// fails the audit check.
	rpcIDBits = 24
	// rpcSrcBytes of seeded bytes per caller; each payload is a slice of
	// it at a seeded offset.
	rpcSrcBytes = 4 << 20
	// rpcWarmPerKind warm-up operations per size class and payload mode.
	rpcWarmPerKind = 8
	// rpcSampleEvery: a traced pass records the spans of one operation
	// in this many, and of every operation of 64 KB and up, so the rare
	// large sizes have enough samples for their tails.
	rpcSampleEvery = 16
	// rpcLatencySamples bounds each caller's latency samples.
	rpcLatencySamples = 1 << 20
)

var (
	rpcSizes = [...]int{64, 4 << 10, 64 << 10, 1 << 20}
	// rpcSizeCum is the cumulative share of each size class.
	rpcSizeCum = [...]float64{0.70, 0.94, 0.98, 1.0}
	sizeNames  = [...]string{"64b", "4k", "64k", "1m"}
)

// payloadSum is a checksum over a deterministic sample of p: the first
// and last word and one word per 4 KB block, at offsets derived from
// the request id.
func payloadSum(p []byte, id uint64) uint64 {
	n := len(p)
	if n < 8 {
		return 0
	}
	h := uint64(n)*0x9e3779b97f4a7c15 ^ id
	add := func(off int) {
		h = (h ^ binary.LittleEndian.Uint64(p[off:])) * 0xff51afd7ed558ccd
	}
	add(0)
	for b := 0; b < n; b += 4096 {
		span := min(4096, n-b) - 7
		add(b + int((id*0x2545f4914f6cdd1d^uint64(b))%uint64(span)))
	}
	add(n - 8)
	return h
}

// rpcResult is the value the handler returns for request id with a
// payload checksum sum.
func rpcResult(id, sum uint64) uint64 { return mix(id ^ sum) }

// rpcServer holds both services' handlers.
type rpcServer struct {
	chk   *checker
	skew  uint64
	drop  bool
	audit *onceSet
	// ran counts audit handler runs, dropped ones included.
	ran atomic.Int64
}

// handle verifies a payload. Args: [0] request id, [2] payload size,
// [5] nonzero to time the handler; result [0] = rpcResult(id, sum of
// the payload as the handler sees it); a timed call also returns the
// handler span in [1], [2] and the Ctx.Payload span in [3], [4].
func (rs *rpcServer) handle(ctx *rt.Ctx, a *rt.Args) {
	var start, v0, v1 int64
	timed := a[5] != 0
	if timed {
		start = now()
		v0 = start
	}
	p := ctx.Payload(0)
	if timed {
		v1 = now()
	}
	var sum uint64
	if uint64(len(p)) == a[2] {
		sum = payloadSum(p, a[0])
	}
	a[0] = rpcResult(a[0], sum) + rs.skew
	if timed {
		a[1], a[2], a[3], a[4] = uint64(start), uint64(now()), uint64(v0), uint64(v1)
	}
}

// handleAudit records an audit record's completion. Args: [0] request id.
func (rs *rpcServer) handleAudit(_ *rt.Ctx, a *rt.Args) {
	id := a[0]
	if !(rs.drop && id%97 == 0) && !rs.audit.mark(id) {
		rs.chk.fail(1, "audit: record %d completed twice", id)
	}
	rs.ran.Add(1)
}

// rpcCaller is one load goroutine's state.
type rpcCaller struct {
	_       [64]byte
	ops     progress
	bytes   progress
	c       *rt.Client
	batch   *rt.Batch
	rng     *rand.Rand
	src     []byte
	scratch []byte
	idBase  uint64
	seq     uint64
	staged  []uint64
	// refused audit ids; audited counts accepted audit records.
	refused map[uint64]bool
	audited int64
	nOps    int64
	nBytes  int64
	lat     *samples
	spans   *spanLog
	_       [64]byte
}

type rpcEnv struct {
	sys     *rt.System
	srv     *rpcServer
	ep      rt.EntryPointID
	epAudit rt.EntryPointID
	callers []*rpcCaller
}

func setupRPC(n int, seed uint64, f faults, chk *checker) (*rpcEnv, error) {
	e := &rpcEnv{sys: rt.NewSystem()}
	e.srv = &rpcServer{chk: chk, drop: f.dropCompletion, audit: newOnceSet(n << rpcIDBits)}
	if f.wrongResult {
		e.srv.skew = 1
	}
	svc, err := e.sys.Bind(rt.ServiceConfig{Name: "rpc", Handler: e.srv.handle})
	if err != nil {
		e.sys.Close()
		return nil, err
	}
	audit, err := e.sys.Bind(rt.ServiceConfig{Name: "audit", Handler: e.srv.handleAudit})
	if err != nil {
		e.sys.Close()
		return nil, err
	}
	e.ep, e.epAudit = svc.EP(), audit.EP()
	for i := 0; i < n; i++ {
		rng := rand.New(rand.NewPCG(seed, uint64(100+i)))
		src := make([]byte, rpcSrcBytes)
		for j := 0; j < len(src); j += 8 {
			binary.LittleEndian.PutUint64(src[j:], rng.Uint64())
		}
		c := e.sys.NewClientOnShard(i % e.sys.NumShards())
		rc := &rpcCaller{
			c: c, rng: rng, src: src, idBase: uint64(i) << rpcIDBits,
			batch:   c.NewBatch(e.epAudit, auditEvery),
			refused: map[uint64]bool{},
			lat:     newSamples(rpcLatencySamples),
		}
		rc.batch.SetDeadline(auditDeadline)
		e.callers = append(e.callers, rc)
	}
	// Warm every size class in both payload modes, so the arena's slabs,
	// the offload lane and each client's deadline executor exist before
	// the clock starts.
	for _, rc := range e.callers {
		for k := range rpcSizes {
			for i := 0; i < 2*rpcWarmPerKind; i++ {
				rc.op(e, chk, f, k, i%2 == 0)
			}
		}
		rc.flush(chk)
		rc.lat.v = rc.lat.v[:0]
	}
	return e, nil
}

// op performs one rpc operation of size class k.
func (rc *rpcCaller) op(e *rpcEnv, chk *checker, f faults, k int, zeroCopy bool) {
	id := rc.idBase + rc.seq
	rc.seq++
	size := rpcSizes[k]
	off := rc.rng.IntN(len(rc.src) - size + 1)
	data := rc.src[off : off+size]
	want := payloadSum(data, id)
	traced := rc.spans != nil && (size >= 64<<10 || rc.seq%rpcSampleEvery == 0)

	var a rt.Args
	a[0], a[2] = id, uint64(size)
	t0 := now()
	var err error
	if zeroCopy {
		var ref rt.PayloadRef
		var buf []byte
		ref, buf, err = rc.c.AllocPayload(size)
		if err == nil {
			if traced {
				rc.spans.add(spAlloc, id, -1, t0, now(), uint32(size))
			}
			copy(buf, data)
			if f.corruptPayload {
				buf[0] ^= 0xff
			}
			a.AttachPayload(ref)
		}
	} else {
		if f.corruptPayload {
			rc.scratch = append(rc.scratch[:0], data...)
			rc.scratch[0] ^= 0xff
			data = rc.scratch
		}
		err = rc.c.AttachBytes(&a, data)
		if traced && err == nil {
			rc.spans.add(spAttach, id, -1, t0, now(), uint32(size))
		}
	}
	rc.nOps++
	if err != nil {
		chk.fail(1, "rpc: payload of %d bytes: %v", size, err)
		return
	}
	if traced {
		a[5] = 1
	}
	c0 := now()
	err = rc.c.CallDeadline(e.ep, &a, rpcDeadline)
	c1 := now()
	switch {
	case err != nil:
		chk.fail(1, "rpc: CallDeadline: %v", err)
	case a[0] != rpcResult(id, want):
		chk.fail(1, "rpc: request %d (%d bytes): wrong result", id, size)
	default:
		rc.nBytes += int64(size)
		rc.lat.add(c1 - t0)
		if traced {
			op := rc.spans.add(spRPC, id, -1, t0, c1, uint32(size))
			// The payload span was recorded first; adopt it.
			rc.spans.spans[len(rc.spans.spans)-2].parent = op
			call := rc.spans.add(spCallDeadline, id, op, c0, c1, uint32(size))
			h := rc.spans.add(spHandler, id, call, int64(a[1]), int64(a[2]), uint32(size))
			rc.spans.add(spView, id, h, int64(a[3]), int64(a[4]), uint32(size))
		}
	}

	var au rt.Args
	au[0] = id
	rc.batch.Add(&au)
	rc.staged = append(rc.staged, id)
	if len(rc.staged) == auditEvery {
		rc.flush(chk)
	}
}

// flush submits the staged audit records. A refused tail is recorded so
// the completion check expects those records not to run.
func (rc *rpcCaller) flush(chk *checker) {
	if len(rc.staged) == 0 {
		return
	}
	t0 := now()
	n, err := rc.batch.Flush()
	if rc.spans != nil {
		rc.spans.add(spFlush, rc.staged[0], -1, t0, now(), uint32(len(rc.staged)))
	}
	rc.audited += int64(n)
	if err != nil {
		tail := int64(len(rc.staged) - n)
		if errors.Is(err, rt.ErrBackpressure) || errors.Is(err, rt.ErrShed) {
			chk.refused.Add(tail)
		} else {
			chk.fail(tail, "audit: Flush: %v", err)
		}
		for _, id := range rc.staged[n:] {
			rc.refused[id] = true
		}
	}
	rc.staged = rc.staged[:0]
}

func (rc *rpcCaller) loop(e *rpcEnv, stop *atomic.Bool, chk *checker, f faults) {
	for !stop.Load() {
		u := rc.rng.Float64()
		k := 0
		for u >= rpcSizeCum[k] {
			k++
		}
		rc.op(e, chk, f, k, rc.rng.IntN(2) == 0)
		rc.ops.n.Store(uint64(rc.nOps))
		rc.bytes.n.Store(uint64(rc.nBytes))
	}
	rc.flush(chk)
}

// finish waits for every accepted audit record, checks that each ran
// exactly once and no refused one ran, releases the clients and closes
// the System.
func (e *rpcEnv) finish(chk *checker) {
	var accepted int64
	for _, rc := range e.callers {
		rc.flush(chk)
		accepted += rc.audited
	}
	if !waitFor(5*time.Second, func() bool { return e.srv.ran.Load() >= accepted }) {
		chk.fail(accepted-e.srv.ran.Load(), "audit: %d of %d accepted records never ran", accepted-e.srv.ran.Load(), accepted)
	}
	for _, rc := range e.callers {
		var missing, extra int64
		for id := rc.idBase; id < rc.idBase+rc.seq; id++ {
			done := e.srv.audit.has(id)
			if rc.refused[id] {
				if done {
					extra++
				}
			} else if !done {
				missing++
			}
		}
		if missing > 0 {
			chk.fail(missing, "audit: %d accepted records did not complete", missing)
		}
		if extra > 0 {
			chk.fail(extra, "audit: %d refused records ran", extra)
		}
		chk.attempted.Add(rc.nOps)
		rc.c.Release()
	}
	e.sys.Close()
}

// rpcRound sets up, runs the closed loop for dur, and tears down.
func rpcRound(cfg config, dur time.Duration, chk *checker) (*round, error) {
	t0 := now()
	env, err := setupRPC(runtime.NumCPU(), cfg.seed, cfg.faults, chk)
	if err != nil {
		return nil, fmt.Errorf("rpc setup: %w", err)
	}
	r := newRound(float64(now()-t0) / 1e9)
	if cfg.traced {
		for _, rc := range env.callers {
			rc.spans = newSpanLog(1 << 14)
		}
	}
	before := statTotals(env.sys)
	var pk *peaks
	if cfg.traced {
		pk = watchPeaks(env.sys)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	var ops, bytes []*progress
	for _, rc := range env.callers {
		ops, bytes = append(ops, &rc.ops), append(bytes, &rc.bytes)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rc.loop(env, &stop, chk, cfg.faults)
		}()
	}
	settle := min(dur/10, 100*time.Millisecond)
	time.Sleep(settle)
	rates := windowRates([]func() uint64{sumOf(ops), sumOf(bytes)}, dur-settle, rateWindow)
	stop.Store(true)
	wg.Wait()
	if pk != nil {
		pk.finish()
	}
	after := statTotals(env.sys)

	var lat []int64
	for _, rc := range env.callers {
		lat = append(lat, rc.lat.v...)
	}
	r.e2e["ops_per_s"] = rates[0]
	r.e2e["p50_us"] = nsQuantile(lat, 0.5, time.Microsecond)
	r.named["rpc_rate"] = rates[0]
	r.named["rpc_mb_per_s"] = rates[1] / 1e6
	r.named["rpc_p50_us"] = r.e2e["p50_us"]
	r.named["rpc_p99_us"] = nsQuantile(lat, 0.99, time.Microsecond)

	if d := after.expirations - before.expirations; d != 0 {
		chk.fail(d, "rpc: %d deadline expirations under a generous deadline", d)
	}
	if cfg.traced {
		r.spans = newSpanLog(0)
		for _, rc := range env.callers {
			r.spans.merge(rc.spans)
		}
		rpcLayers(r, before, after, pk)
	}
	env.finish(chk)
	closeChecks(chk, env.sys)
	return r, nil
}

func rpcLayers(r *round, before, after totals, pk *peaks) {
	l, sp := r.layers, r.spans
	self := sp.selfTimes(spCallDeadline)
	l["deadline.self_ns_p50"] = nsQuantile(self, 0.5, time.Nanosecond)
	l["deadline.self_ns_p99"] = nsQuantile(self, 0.99, time.Nanosecond)
	l["deadline.expirations"] = float64(after.expirations - before.expirations)
	l["deadline.quarantined_max"] = float64(pk.quarantined)
	l["payload.alloc_ns_p50"] = nsQuantile(sp.durations(spAlloc, nil), 0.5, time.Nanosecond)
	for k, size := range rpcSizes {
		bySize := func(s span) bool { return s.aux == uint32(size) }
		l["payload.attach_ns_p50."+sizeNames[k]] = nsQuantile(sp.durations(spAttach, bySize), 0.5, time.Nanosecond)
		if size >= 64<<10 {
			l["payload.view_ns_p99."+sizeNames[k]] = nsQuantile(sp.durations(spView, bySize), 0.99, time.Nanosecond)
		}
	}
	l["arena.grows"] = float64(after.arenaGrows - before.arenaGrows)
	l["offload.bytes"] = float64(after.offloadBytes - before.offloadBytes)
	l["offload.depth_max"] = float64(pk.offloadDepth)
	l["batch.flush_ns_p50"] = nsQuantile(sp.durations(spFlush, nil), 0.5, time.Nanosecond)
	l["shard.cds_created"] = float64(after.cdsCreated - before.cdsCreated)
}
