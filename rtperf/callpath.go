package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hurricane/rt"
)

// The callpath workload: a closed loop of held Client.Calls into a
// file-server-like service whose handler reads and writes one record of
// a per-shard table and mixes the caller's nonce — work costing about as
// much as the call itself, the paper's GetLength (half IPC, half
// server). Three phases: one caller; nproc callers on disjoint shards;
// nproc callers whose handlers all take one shared mutex (Figure 3's
// single-file regime, the control on which call-path gains should
// barely show). A traced pass adds a fourth phase whose callers build
// their clients on their own goroutines, for client.placement_ratio.

const (
	// fsRounds is the handler's xorshift work per call, sized so the
	// handler costs about as much as a warm held call (tens of ns).
	fsRounds = 24
	// fsKeys is the number of table records each caller cycles through.
	fsKeys = 64
	// fsNonces is the number of distinct nonces a caller cycles through;
	// their expected mixes are computed once, so checking a result costs
	// one table load.
	fsNonces = 256
	// fsBlock calls are timed together for the per-call latency: about
	// 3 us, so a clock read (about 60 ns) costs little and a host timer
	// tick lands in well under 1% of blocks.
	fsBlock = 16
	// fsWarmCalls is each caller's warm-up, part of setup.
	fsWarmCalls = 20000
	// fsSampleEvery: a traced pass times one call in this many (prime,
	// so the sampled calls cycle through keys and nonces).
	fsSampleEvery = 251
	// rateWindow is the window of the median-of-windows call rate.
	rateWindow = 50 * time.Millisecond
)

// fileServer is the service. Each shard has its own table; the shared
// variant serializes every call on one mutex over one table.
type fileServer struct {
	tables [][]uint64
	mu     sync.Mutex
	shared []uint64
	// skew is added to every result; nonzero only under faults.wrongResult.
	skew uint64
}

// mix is the handler's work: fsRounds of xorshift over the nonce.
func mix(x uint64) uint64 {
	for i := 0; i < fsRounds; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// serve is one call against table t. Args: [0] record key, [1] nonce;
// results: [2] mix(nonce)^key, [3] the record's previous value.
func (fs *fileServer) serve(a *rt.Args, t []uint64) {
	k := a[0]
	old := t[k]
	t[k] = old + 1
	a[2] = mix(a[1]) ^ k + fs.skew
	a[3] = old
}

// handle serves from the calling shard's table. A caller sets a[4] to
// have the handler time itself into a[5] and a[6].
func (fs *fileServer) handle(ctx *rt.Ctx, a *rt.Args) {
	if a[4] == 0 {
		fs.serve(a, fs.tables[ctx.Shard()])
		return
	}
	start := now()
	fs.serve(a, fs.tables[ctx.Shard()])
	a[5], a[6] = uint64(start), uint64(now())
}

func (fs *fileServer) handleShared(_ *rt.Ctx, a *rt.Args) {
	fs.mu.Lock()
	fs.serve(a, fs.shared)
	fs.mu.Unlock()
}

// fsCaller is one load goroutine's state. Its keys are its own, so it
// knows every record's expected previous value. Padded so that two
// callers never share a written cache line.
type fsCaller struct {
	_      [64]byte
	prog   progress
	c      *rt.Client
	ep     rt.EntryPointID
	base   uint64
	counts [fsKeys]uint64
	nonce  *[fsNonces]uint64
	expect *[fsNonces]uint64
	j      int
	calls  int64
	// blocks, when set, collects per-block call times (ns per fsBlock
	// calls); spans, when set, collects sampled call spans.
	blocks *samples
	spans  *spanLog
	_      [64]byte
}

func (fc *fsCaller) loop(stop *atomic.Bool, chk *checker) {
	var a rt.Args
	for !stop.Load() {
		var t0 int64
		if fc.blocks != nil {
			t0 = now()
		}
		for i := 0; i < fsBlock; i++ {
			fc.call(&a, chk)
		}
		if fc.blocks != nil {
			fc.blocks.add(now() - t0)
		}
		fc.prog.n.Store(uint64(fc.calls))
	}
}

func (fc *fsCaller) call(a *rt.Args, chk *checker) {
	ki, nj := fc.j%fsKeys, fc.j%fsNonces
	k := fc.base + uint64(ki)
	a[0], a[1], a[4] = k, fc.nonce[nj], 0
	var err error
	if fc.spans != nil && fc.j%fsSampleEvery == 0 {
		a[4] = 1
		t0 := now()
		err = fc.c.Call(fc.ep, a)
		t1 := now()
		if err == nil {
			p := fc.spans.add(spCall, uint64(fc.j), -1, t0, t1, 0)
			fc.spans.add(spHandler, uint64(fc.j), p, int64(a[5]), int64(a[6]), 0)
		}
	} else {
		err = fc.c.Call(fc.ep, a)
	}
	fc.j++
	fc.calls++
	if err != nil {
		chk.fail(1, "callpath: Call: %v", err)
		return
	}
	if a[2] != fc.expect[nj]^k || a[3] != fc.counts[ki] {
		chk.fail(1, "callpath: key %d: got (%#x, %d), want (%#x, %d)", k, a[2], a[3], fc.expect[nj]^k, fc.counts[ki])
		fc.counts[ki] = a[3]
	}
	fc.counts[ki]++
}

// cpEnv is one set-up callpath system.
type cpEnv struct {
	sys      *rt.System
	fs       *fileServer
	ep       rt.EntryPointID
	epShared rt.EntryPointID
	nonce    *[fsNonces]uint64
	expect   *[fsNonces]uint64
	slots    int // caller key ranges handed out so far
	single   *fsCaller
	disjoint []*fsCaller
	shared   []*fsCaller
}

// callerSlots bounds the key ranges: single, disjoint, shared and
// placement callers.
func callerSlots(n int) int { return 1 + 3*n }

func (e *cpEnv) newCaller(c *rt.Client, ep rt.EntryPointID) *fsCaller {
	fc := &fsCaller{c: c, ep: ep, base: uint64(e.slots * fsKeys), nonce: e.nonce, expect: e.expect}
	e.slots++
	return fc
}

// warm runs a caller's warm-up calls on the current goroutine.
func (fc *fsCaller) warm(chk *checker) {
	var a rt.Args
	for i := 0; i < fsWarmCalls; i++ {
		fc.call(&a, chk)
	}
}

// setupCallpath builds the System, both services and every caller's
// client on the calling goroutine (as a server building its client pool
// at start-up; the layout is deterministic), holds each client's call
// descriptor, and warms every caller.
func setupCallpath(n int, seed uint64, f faults, chk *checker) (*cpEnv, error) {
	e := &cpEnv{sys: rt.NewSystem(), nonce: new([fsNonces]uint64), expect: new([fsNonces]uint64)}
	rng := rand.New(rand.NewPCG(seed, 1))
	for i := range e.nonce {
		e.nonce[i] = rng.Uint64() | 1
		e.expect[i] = mix(e.nonce[i])
	}
	keys := callerSlots(n) * fsKeys
	e.fs = &fileServer{tables: make([][]uint64, e.sys.NumShards()), shared: make([]uint64, keys)}
	for i := range e.fs.tables {
		e.fs.tables[i] = make([]uint64, keys)
	}
	if f.wrongResult {
		e.fs.skew = 1
	}
	svc, err := e.sys.Bind(rt.ServiceConfig{Name: "fs", Handler: e.fs.handle})
	if err != nil {
		e.sys.Close()
		return nil, err
	}
	shared, err := e.sys.Bind(rt.ServiceConfig{Name: "fs-shared", Handler: e.fs.handleShared})
	if err != nil {
		e.sys.Close()
		return nil, err
	}
	e.ep, e.epShared = svc.EP(), shared.EP()
	shardOf := func(i int) int { return i % e.sys.NumShards() }
	e.single = e.newCaller(e.sys.NewClientOnShard(0), e.ep)
	for i := 0; i < n; i++ {
		e.disjoint = append(e.disjoint, e.newCaller(e.sys.NewClientOnShard(shardOf(i)), e.ep))
	}
	for i := 0; i < n; i++ {
		e.shared = append(e.shared, e.newCaller(e.sys.NewClientOnShard(shardOf(i)), e.epShared))
	}
	for _, fc := range e.all() {
		fc.c.Hold()
		fc.warm(chk)
	}
	return e, nil
}

func (e *cpEnv) all() []*fsCaller {
	return append(append([]*fsCaller{e.single}, e.disjoint...), e.shared...)
}

func (e *cpEnv) close(chk *checker) {
	for _, fc := range e.all() {
		chk.attempted.Add(fc.calls)
		fc.c.Release()
	}
	e.sys.Close()
}

// runPhase runs callers concurrently for dur after a short settling
// period and returns their median-window combined call rate. build, when
// set, runs first on each caller's own goroutine.
func runPhase(callers []*fsCaller, dur time.Duration, chk *checker, build func(*fsCaller)) float64 {
	var stop atomic.Bool
	var wg, ready sync.WaitGroup
	ready.Add(len(callers))
	counters := make([]*progress, len(callers))
	for i, fc := range callers {
		counters[i] = &fc.prog
		wg.Add(1)
		go func() {
			defer wg.Done()
			if build != nil {
				build(fc)
			}
			ready.Done()
			fc.loop(&stop, chk)
		}()
	}
	ready.Wait()
	settle := min(dur/10, 100*time.Millisecond)
	time.Sleep(settle)
	rate := windowRates([]func() uint64{sumOf(counters)}, dur-settle, rateWindow)[0]
	stop.Store(true)
	wg.Wait()
	return rate
}

// callpathRound sets up, measures each phase for its share of dur, and
// tears down.
func callpathRound(cfg config, dur time.Duration, chk *checker) (*round, error) {
	n := runtime.NumCPU()
	t0 := now()
	env, err := setupCallpath(n, cfg.seed, cfg.faults, chk)
	if err != nil {
		return nil, fmt.Errorf("callpath setup: %w", err)
	}
	r := newRound(float64(now()-t0) / 1e9)
	if cfg.traced {
		// The shared phase is the control; its calls are not traced.
		for _, fc := range append([]*fsCaller{env.single}, env.disjoint...) {
			fc.spans = newSpanLog(1 << 12)
		}
	}
	for _, fc := range env.disjoint {
		fc.blocks = newSamples(1 << 18)
	}
	weights := []float64{0.3, 0.4, 0.3}
	if cfg.traced {
		weights = []float64{0.25, 0.25, 0.25, 0.25}
	}
	phase := func(i int) time.Duration { return time.Duration(weights[i] * float64(dur)) }

	rate1 := runPhase([]*fsCaller{env.single}, phase(0), chk, nil)
	rateN := runPhase(env.disjoint, phase(1), chk, nil)
	rateShared := runPhase(env.shared, phase(2), chk, nil)

	var ownCallers []*fsCaller
	rateOwn := 0.0
	if cfg.traced {
		// Placement: the same disjoint-shard phase, but each caller
		// builds, holds and warms its client on its own goroutine.
		for i := 0; i < n; i++ {
			ownCallers = append(ownCallers, env.newCaller(nil, env.ep))
		}
		rateOwn = runPhase(ownCallers, phase(3), chk, func(fc *fsCaller) {
			shard := int(fc.base/fsKeys) % env.sys.NumShards()
			fc.c = env.sys.NewClientOnShard(shard)
			fc.spans = newSpanLog(1 << 12)
			fc.c.Hold()
			fc.warm(chk)
		})
	}

	var perCall []float64
	for _, fc := range env.disjoint {
		for _, b := range fc.blocks.v {
			perCall = append(perCall, float64(b)/fsBlock/1e3)
		}
	}
	r.e2e["ops_per_s"] = rateN
	r.e2e["p50_us"] = quantile(perCall, 0.5)
	r.named["call_rate_1"] = rate1
	r.named["call_rate_n"] = rateN
	r.named["call_rate_n_shared"] = rateShared
	r.named["call_p99_us"] = quantile(perCall, 0.99)

	if cfg.traced {
		r.spans = newSpanLog(0)
		for _, fc := range append(append([]*fsCaller{env.single}, env.disjoint...), ownCallers...) {
			r.spans.merge(fc.spans)
		}
		self := r.spans.selfTimes(spCall)
		r.layers["client.self_ns_p50"] = nsQuantile(self, 0.5, time.Nanosecond)
		r.layers["client.self_ns_p99"] = nsQuantile(self, 0.99, time.Nanosecond)
		r.layers["client.handler_ns_p50"] = nsQuantile(r.spans.durations(spHandler, nil), 0.5, time.Nanosecond)
		r.layers["client.placement_ratio"] = rateOwn / rateN
	}
	for _, fc := range ownCallers {
		chk.attempted.Add(fc.calls)
		fc.c.Release()
	}
	env.close(chk)
	closeChecks(chk, env.sys)
	return r, nil
}
