package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hurricane/rt"
)

// checker counts operations attempted, failed and refused, and keeps
// the first few failure descriptions. A failed operation is a wrong
// result, an unexpected error, a lost or duplicated completion, or a
// failed close-time check. A refusal (ErrShed, ErrBackpressure, tenant
// throttling) is not a failure; it only counts against goodput.
type checker struct {
	attempted, failed, refused atomic.Int64

	mu       sync.Mutex
	problems []string
}

const maxProblems = 8

// fail records n failed operations and describes the first few.
func (c *checker) fail(n int64, format string, args ...any) {
	c.failed.Add(n)
	c.mu.Lock()
	if len(c.problems) < maxProblems {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

func (c *checker) problemList() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.problems...)
}

func (c *checker) result() result {
	r := result{Attempted: c.attempted.Load(), Failed: c.failed.Load()}
	if r.Attempted == 0 {
		c.fail(1, "no operation was attempted")
		r.Attempted, r.Failed = 1, c.failed.Load()
	}
	r.Correct = r.Failed == 0
	return r
}

// onceSet records request completions and catches duplicates: each id
// may be marked once.
type onceSet struct{ bits []atomic.Uint64 }

func newOnceSet(n int) *onceSet { return &onceSet{bits: make([]atomic.Uint64, (n+63)/64)} }

// mark records id; false means id was out of range or already marked.
func (s *onceSet) mark(id uint64) bool {
	w := id / 64
	if w >= uint64(len(s.bits)) {
		return false
	}
	bit := uint64(1) << (id % 64)
	// A CAS loop rather than atomic Or: go1.24.0 on amd64 can clobber a
	// live register when Or's result is used.
	for {
		old := s.bits[w].Load()
		if old&bit != 0 {
			return false
		}
		if s.bits[w].CompareAndSwap(old, old|bit) {
			return true
		}
	}
}

func (s *onceSet) has(id uint64) bool {
	w := id / 64
	return w < uint64(len(s.bits)) && s.bits[w].Load()&(uint64(1)<<(id%64)) != 0
}

// totals sums the per-shard statistics the benchmark reads.
type totals struct {
	cdsCreated, expirations, quarantined, leases int64
	arenaGrows, offloadBytes                     int64
	offloadDepth, laneDepth                      int
	shed                                         [rt.NumLaneClasses]int64
	backpressure, throttled, replacements        int64
}

func statTotals(sys *rt.System) totals {
	var t totals
	for _, s := range sys.Stats() {
		t.cdsCreated += s.CDsCreated
		t.expirations += s.DeadlineExpirations
		t.quarantined += s.QuarantinedCDs
		t.leases += s.LeasesActive
		t.arenaGrows += s.ArenaGrows
		t.offloadBytes += s.OffloadedBytes
		t.offloadDepth += s.OffloadQueueDepth
		for i := range s.ShedByLane {
			t.shed[i] += s.ShedByLane[i]
			t.laneDepth += s.LaneDepth[i]
		}
		t.backpressure += s.BackpressureRejects
		t.throttled += s.TenantThrottled
		t.replacements += s.ReplacementsSpawned
	}
	return t
}

// peaks polls Stats while a traced window runs, keeping the highest
// gauge readings.
type peaks struct {
	stop chan struct{}
	done chan struct{}
	// Written by the polling goroutine, read after stop returns.
	quarantined  int64
	offloadDepth int
	laneDepth    int
}

const peakPoll = 2 * time.Millisecond

func watchPeaks(sys *rt.System) *peaks {
	p := &peaks{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(peakPoll)
		defer tick.Stop()
		for {
			t := statTotals(sys)
			p.quarantined = max(p.quarantined, t.quarantined)
			p.offloadDepth = max(p.offloadDepth, t.offloadDepth)
			p.laneDepth = max(p.laneDepth, t.laneDepth)
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

func (p *peaks) finish() {
	close(p.stop)
	<-p.done
}

// closeChecks verifies a torn-down system: no payload lease still held
// and no quarantined descriptor. Leases are released by whoever settles
// a call, which may trail the caller's return briefly.
func closeChecks(chk *checker, sys *rt.System) {
	var t totals
	waitFor(time.Second, func() bool {
		t = statTotals(sys)
		return t.leases == 0 && t.quarantined == 0
	})
	if t.leases != 0 {
		chk.fail(1, "close: %d payload leases still active", t.leases)
	}
	if t.quarantined != 0 {
		chk.fail(1, "close: %d call descriptors still quarantined", t.quarantined)
	}
}

// leakCheck fails the run if goroutines outlive the workload's systems.
// Deadline executors and workers exit asynchronously after Release and
// Close, so it waits a little for them.
func leakCheck(chk *checker, before int) {
	if !waitFor(3*time.Second, func() bool { return runtime.NumGoroutine() <= before }) {
		chk.fail(1, "close: %d goroutines leaked", runtime.NumGoroutine()-before)
	}
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}
