package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"hurricane/rt"
)

// The async-lanes workload: an open loop. One generator goroutine
// follows a seeded absolute Poisson schedule of AsyncCalls into a
// one-shard System with three lanes: 10% critical, 30% normal, 60%
// best-effort, the best-effort traffic split between two tenants, one
// of them budgeted below its offered share. The handler spins for a
// fixed service time. The schedule runs at two fixed absolute rates:
// mid, about 0.6x of the reference host's capacity, and over, about
// 1.3x. The rates are constants, not calibrated per run, so the offered
// load does not move with the code under test.
//
// Latency is timed from each request's due time, not from when the
// generator got round to sending it, so a generator stall counts
// against every request it delays; gen.late_us_p99 reports how late
// the generator ran. The generator sleeps only through gaps longer
// than lnSpinBelow and spins the rest, because time.Sleep oversleeps by
// about a millisecond.

const (
	// lnServiceNs is the handler's fixed service time.
	lnServiceNs = 8000
	// lnMidRate and lnOverRate are the offered loads, requests per
	// second.
	lnMidRate  = 80000
	lnOverRate = 170000
	// lnLimit is the latency limit of async_goodput_rps.
	lnLimit = 2 * time.Millisecond
	// lnSpinBelow: the generator spins through the last stretch of any
	// gap, and the whole of shorter ones.
	lnSpinBelow = 2 * time.Millisecond
	// lnWarmShare of each phase is warm-up, excluded from the window.
	lnWarmShare = 0.15
	// lnSpanEvery: a traced pass writes the spans of one request in
	// this many (its metrics use every request).
	lnSpanEvery = 8
	// Tenant budgets, requests per second: tenant 1's is well above its
	// share, tenant 2's is half its share of the mid load.
	lnTenantOK    = 1
	lnBudgetOK    = 10 * lnOverRate
	lnTenantTight = 2
	lnBudgetTight = 0.5 * 0.3 * lnMidRate
	lnTenantBurst = 32
)

// lnMix is the cumulative traffic share of each generator stream:
// critical, normal, best-effort tenant 1, best-effort tenant 2.
var lnMix = [...]float64{0.10, 0.40, 0.70, 1.0}

// lnLaneIdx maps a stream to its lane's priority index.
var lnLaneIdx = [...]uint8{0, 1, 2, 2}

var laneNames = [rt.NumLaneClasses]string{"critical", "normal", "besteffort"}

// lnState is one phase's per-request record, kept as arrays indexed by
// request id: the async-lanes spans in struct-of-arrays form.
type lnState struct {
	due    []int64 // when the request was due
	sent   []int64 // AsyncCall start
	back   []int64 // AsyncCall return
	start  []int64 // handler start
	end    []int64 // handler end; 0 until the request completes
	stream []uint8
	status []uint8
	empty  []bool // submitted with every earlier accepted request done
}

const (
	stNone uint8 = iota
	stAccepted
	stRefused
	stFailed
)

type laneServer struct {
	sys     *rt.System
	ep      rt.EntryPointID
	clients [len(lnMix)]*rt.Client
	chk     *checker
	drop    bool
	skew    uint64
	st      *lnState
	done    *onceSet
	ran     progress
}

// handle serves one request. Args: [0] request id, [1] lane tag.
func (ls *laneServer) handle(_ *rt.Ctx, a *rt.Args) {
	start := now()
	for now()-start < lnServiceNs {
	}
	end := now()
	id := a[0]
	st := ls.st
	switch {
	case id >= uint64(len(st.due)):
		ls.chk.fail(1, "async-lanes: request id %d out of range", id)
	case a[1]+ls.skew != uint64(lnLaneIdx[st.stream[id]]):
		ls.chk.fail(1, "async-lanes: request %d carried lane tag %d, sent on lane %d", id, a[1], lnLaneIdx[st.stream[id]])
	case ls.drop && id%97 == 0:
	case !ls.done.mark(id):
		ls.chk.fail(1, "async-lanes: request %d completed twice", id)
	default:
		st.start[id], st.end[id] = start, end
	}
	ls.ran.n.Add(1)
}

func setupLanes(f faults, chk *checker) (*laneServer, error) {
	ls := &laneServer{chk: chk, drop: f.dropCompletion}
	if f.wrongResult {
		ls.skew = 1
	}
	ls.sys = rt.NewSystemOptions(rt.Options{Shards: 1, Lanes: rt.NumLaneClasses})
	svc, err := ls.sys.Bind(rt.ServiceConfig{Name: "lanes", Handler: ls.handle})
	if err != nil {
		ls.sys.Close()
		return nil, err
	}
	ls.ep = svc.EP()
	if err := ls.sys.ConfigureTenant(lnTenantOK, rt.TenantConfig{Rate: lnBudgetOK, Burst: lnTenantBurst}); err != nil {
		ls.sys.Close()
		return nil, err
	}
	if err := ls.sys.ConfigureTenant(lnTenantTight, rt.TenantConfig{Rate: lnBudgetTight, Burst: lnTenantBurst}); err != nil {
		ls.sys.Close()
		return nil, err
	}
	opts := [len(lnMix)]rt.ClientOptions{
		{Lane: rt.LaneCritical},
		{Lane: rt.LaneNormal},
		{Lane: rt.LaneBestEffort, Tenant: lnTenantOK},
		{Lane: rt.LaneBestEffort, Tenant: lnTenantTight},
	}
	for i, o := range opts {
		ls.clients[i] = ls.sys.NewClientWith(o)
	}
	// Warm-up: a short closed loop through every client, so the worker
	// pool and every lane ring have run before the clock starts.
	warm := 2000
	ls.reset(warm)
	var accepted uint64
	for id := 0; id < warm; id++ {
		s := uint8(id % len(lnMix))
		ls.st.stream[id] = s
		if ls.submit(uint64(id), s, now(), false) {
			accepted++
		}
		for ls.ran.n.Load()+64 < accepted {
			runtime.Gosched()
		}
	}
	if !waitFor(5*time.Second, func() bool { return ls.ran.n.Load() == accepted }) {
		ls.sys.Close()
		return nil, fmt.Errorf("async-lanes warm-up did not drain")
	}
	lnPhase{st: ls.st, n: warm}.check(chk)
	return ls, nil
}

// reset starts a fresh per-request record for up to n requests.
func (ls *laneServer) reset(n int) {
	ls.st = &lnState{
		due: make([]int64, n), sent: make([]int64, n), back: make([]int64, n),
		start: make([]int64, n), end: make([]int64, n),
		stream: make([]uint8, n), status: make([]uint8, n), empty: make([]bool, n),
	}
	ls.done = newOnceSet(n)
	ls.ran.n.Store(0)
}

// submit sends request id on stream s and records the outcome; it
// reports whether the request was accepted.
func (ls *laneServer) submit(id uint64, s uint8, due int64, empty bool) bool {
	st := ls.st
	var a rt.Args
	a[0], a[1] = id, uint64(lnLaneIdx[s])
	st.due[id], st.empty[id] = due, empty
	t0 := now()
	err := ls.clients[s].AsyncCall(ls.ep, &a)
	st.sent[id], st.back[id] = t0, now()
	switch {
	case err == nil:
		st.status[id] = stAccepted
		return true
	case errors.Is(err, rt.ErrShed) || errors.Is(err, rt.ErrBackpressure):
		st.status[id] = stRefused
		ls.chk.refused.Add(1)
	default:
		st.status[id] = stFailed
		ls.chk.fail(1, "async-lanes: AsyncCall: %v", err)
	}
	return false
}

// phase drives the open loop at rate for dur and returns the window
// [from, to) of due times that counts, and how many requests it sent.
func (ls *laneServer) phase(rate float64, dur time.Duration, rng *rand.Rand) (from, to int64, n int) {
	total := int64(dur)
	ls.reset(int(rate*dur.Seconds()*1.5) + 1024)
	st := ls.st
	startAt := now() + int64(time.Millisecond)
	from = startAt + int64(lnWarmShare*float64(total))
	to = startAt + total
	gap := 1e9 / rate
	var accepted uint64
	due := startAt
	for id := 0; due < to && id < len(st.due); id++ {
		for {
			d := due - now()
			if d <= 0 {
				break
			}
			if d > int64(lnSpinBelow) {
				time.Sleep(time.Duration(d) - lnSpinBelow)
			}
		}
		u := rng.Float64()
		s := 0
		for u >= lnMix[s] {
			s++
		}
		st.stream[id] = uint8(s)
		if ls.submit(uint64(id), uint8(s), due, ls.ran.n.Load() == accepted) {
			accepted++
		}
		n = id + 1
		due += int64(rng.ExpFloat64() * gap)
	}
	if !waitFor(5*time.Second, func() bool { return ls.ran.n.Load() == accepted }) {
		ls.chk.fail(int64(accepted-ls.ran.n.Load()), "async-lanes: %d accepted requests never ran", accepted-ls.ran.n.Load())
	}
	return from, to, n
}

// lnPhase is one finished phase's record.
type lnPhase struct {
	st       *lnState
	from, to int64
	n        int
}

// inWindow calls f for each request of the phase due inside its window.
func (p lnPhase) inWindow(f func(id int)) {
	for id := 0; id < p.n; id++ {
		if d := p.st.due[id]; d >= p.from && d < p.to {
			f(id)
		}
	}
}

// check verifies that every accepted request completed exactly once
// and no other request ran.
func (p lnPhase) check(chk *checker) {
	var missing, extra int64
	for id := 0; id < p.n; id++ {
		ran := p.st.end[id] != 0
		if p.st.status[id] == stAccepted && !ran {
			missing++
		} else if p.st.status[id] != stAccepted && ran {
			extra++
		}
	}
	if missing > 0 {
		chk.fail(missing, "async-lanes: %d accepted requests did not complete", missing)
	}
	if extra > 0 {
		chk.fail(extra, "async-lanes: %d refused requests ran", extra)
	}
	chk.attempted.Add(int64(p.n))
}

// latencies returns the due-to-completion times of the phase's
// completed in-window requests on the given streams (nil: all).
func (p lnPhase) latencies(keep func(s uint8) bool) []int64 {
	var out []int64
	p.inWindow(func(id int) {
		if p.st.end[id] != 0 && (keep == nil || keep(p.st.stream[id])) {
			out = append(out, p.st.end[id]-p.st.due[id])
		}
	})
	return out
}

// lanesRound sets up, runs the open loop at the mid rate and then at the
// over rate for half of dur each, and tears down.
func lanesRound(cfg config, dur time.Duration, chk *checker) (*round, error) {
	t0 := now()
	ls, err := setupLanes(cfg.faults, chk)
	if err != nil {
		return nil, fmt.Errorf("async-lanes setup: %w", err)
	}
	r := newRound(float64(now()-t0) / 1e9)
	rng := rand.New(rand.NewPCG(cfg.seed, 3))
	before := statTotals(ls.sys)
	var pk *peaks
	if cfg.traced {
		pk = watchPeaks(ls.sys)
	}
	var phases [2]lnPhase
	for i, rate := range []float64{lnMidRate, lnOverRate} {
		from, to, n := ls.phase(rate, dur/2, rng)
		phases[i] = lnPhase{st: ls.st, from: from, to: to, n: n}
	}
	if pk != nil {
		pk.finish()
	}
	after := statTotals(ls.sys)
	for _, p := range phases {
		p.check(chk)
	}

	mid, over := phases[0], phases[1]
	midLat := mid.latencies(nil)
	critLat := over.latencies(func(s uint8) bool { return lnLaneIdx[s] == 0 })
	var good int64
	over.inWindow(func(id int) {
		if over.st.end[id] != 0 && over.st.end[id]-over.st.due[id] <= int64(lnLimit) {
			good++
		}
	})
	goodput := float64(good) / (float64(over.to-over.from) / 1e9)
	r.e2e["ops_per_s"] = goodput
	r.e2e["p50_us"] = nsQuantile(midLat, 0.5, time.Microsecond)
	r.named["async_p50_us"] = r.e2e["p50_us"]
	r.named["async_p99_us"] = nsQuantile(midLat, 0.99, time.Microsecond)
	r.named["async_crit_p99_us"] = nsQuantile(critLat, 0.99, time.Microsecond)
	r.named["async_goodput_rps"] = goodput
	if cfg.traced {
		lanesLayers(r, phases, before, after, pk)
	}
	for _, c := range ls.clients {
		c.Release()
	}
	ls.sys.Close()
	closeChecks(chk, ls.sys)
	return r, nil
}

func lanesLayers(r *round, phases [2]lnPhase, before, after totals, pk *peaks) {
	l := r.layers
	r.spans = newSpanLog(0)
	var submit, wake, late []int64
	var wait [rt.NumLaneClasses][]int64
	var busy, window int64
	for _, p := range phases {
		st := p.st
		window += p.to - p.from
		p.inWindow(func(id int) {
			late = append(late, st.sent[id]-st.due[id])
			submit = append(submit, st.back[id]-st.sent[id])
			if st.end[id] == 0 {
				return
			}
			w := max(0, st.start[id]-st.back[id])
			lane := lnLaneIdx[st.stream[id]]
			wait[lane] = append(wait[lane], w)
			if st.empty[id] {
				wake = append(wake, w)
			}
			busy += st.end[id] - st.start[id]
			if id%lnSpanEvery == 0 {
				aux := uint32(lane)
				if st.empty[id] {
					aux |= auxEmptyQueue
				}
				r.spans.add(spDue, uint64(id), -1, st.due[id], st.sent[id], aux)
				r.spans.add(spSubmit, uint64(id), -1, st.sent[id], st.back[id], aux)
				r.spans.add(spWait, uint64(id), -1, st.back[id], max(st.back[id], st.start[id]), aux)
				r.spans.add(spHandler, uint64(id), -1, st.start[id], st.end[id], aux)
			}
		})
	}
	l["lane.submit_ns_p50"] = nsQuantile(submit, 0.5, time.Nanosecond)
	l["lane.submit_ns_p99"] = nsQuantile(submit, 0.99, time.Nanosecond)
	for i, name := range laneNames {
		l["lane.wait_us_p99."+name] = nsQuantile(wait[i], 0.99, time.Microsecond)
		l["lane.refused."+name] = float64(after.shed[i] - before.shed[i])
	}
	l["worker.wake_us_p50"] = nsQuantile(wake, 0.5, time.Microsecond)
	l["worker.busy_frac"] = float64(busy) / float64(window)
	l["lane.backpressure"] = float64(after.backpressure - before.backpressure)
	l["lane.depth_max"] = float64(pk.laneDepth)
	l["tenant.throttled"] = float64(after.throttled - before.throttled)
	l["watchdog.replacements"] = float64(after.replacements - before.replacements)
	l["gen.late_us_p99"] = nsQuantile(late, 0.99, time.Microsecond)
	l["shard.cds_created"] = float64(after.cdsCreated - before.cdsCreated)
}
