package rtbench

// Open-loop tail-latency harness — the repo's first macrobenchmark.
//
// The closed-loop benches in this package (Async, AsyncBatch, ...)
// measure warm-path cost: each producer waits for capacity, so offered
// load always equals service rate and queueing delay never appears.
// Tail latency under overload needs the opposite shape: an OPEN loop,
// where arrivals follow a Poisson process at a configured offered rate
// regardless of how the system is doing — a slow system does not slow
// the clients down, it grows queues and sheds. That is the regime the
// priority lanes (rt/lane.go) exist for, and the only regime where
// their claim is testable: under saturation the critical lane's p99
// should stay near its unloaded value while the best-effort lane's
// collapses into shed-or-wait.
//
// Method:
//
//   - Capacity is calibrated first with a short closed-loop burst
//     (saturating producers, total completions / wall time), so load
//     points are expressed as fractions of THIS machine's capacity
//     rather than absolute rates that rot with hardware.
//   - Each load point runs thousands of client goroutines, each an
//     independent Poisson source: exponential inter-arrival times on
//     an absolute schedule (a client that falls behind submits its
//     backlog immediately rather than silently thinning the offered
//     load — the open-loop discipline).
//   - Arrival→completion latency is stamped through the request args
//     and recorded handler-side into per-lane log-major/linear-minor
//     histograms (lock-free, one atomic add per request), so the
//     harness itself adds no queue and no lock.
//   - Rejected submissions (ErrShed / ErrBackpressure) count per lane;
//     they have no latency sample — shed traffic fails in nanoseconds,
//     which is exactly the lane contract.
//
// Everything here runs wherever the tests run; on a GOMAXPROCS=1 box
// the producers, the workers, and the watchdog share one processor, so
// absolute numbers are scheduler-shaped — the comparisons (per-lane
// p99 across load points) are the result, not the absolute values.

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hurricane/rt"
)

// OpenLoopConfig shapes one sweep. The zero value of any field means
// its default.
type OpenLoopConfig struct {
	// Clients is the total number of open-loop client goroutines,
	// split across lanes by the traffic mix (default 1200).
	Clients int
	// Duration is the measurement window per load point (default 2s).
	Duration time.Duration
	// Warmup runs the same offered load before measurement starts so
	// queues and the worker pool reach steady state (default
	// Duration/4).
	Warmup time.Duration
	// QueueCap sizes each lane's ring (default 256).
	QueueCap int
	// HandlerSpin is the per-request service work in integer-loop
	// iterations — a stand-in for a real handler body, sized so the
	// shard saturates at a rate the harness can offer (default 30000:
	// service time must dominate the per-arrival producer cost — timer
	// wake plus submit — or a 1-P box measures the producers, not the
	// lanes).
	HandlerSpin int
	// Seed makes the Poisson schedules reproducible (default 1).
	Seed int64
}

func (c OpenLoopConfig) withDefaults() OpenLoopConfig {
	if c.Clients <= 0 {
		c.Clients = 1200
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.Warmup <= 0 {
		c.Warmup = c.Duration / 4
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	if c.HandlerSpin <= 0 {
		c.HandlerSpin = 30000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// laneMix is the offered-traffic split by priority index: 10% critical,
// 30% normal, 60% best-effort — the scavenger class dominates offered
// load, which is what makes criticality-ordered shedding observable.
var laneMix = [rt.NumLaneClasses]float64{0.10, 0.30, 0.60}

// laneOf maps a priority index back to the client-facing Lane.
var laneOf = [rt.NumLaneClasses]rt.Lane{rt.LaneCritical, rt.LaneNormal, rt.LaneBestEffort}

// LaneNames spells the priority indices for reporting.
var LaneNames = [rt.NumLaneClasses]string{"critical", "normal", "besteffort"}

// OpenLoopPoints are the standard load points: well under capacity,
// near the knee, and past saturation.
var OpenLoopPoints = []struct {
	Label string
	Frac  float64
}{
	{"low", 0.2},
	{"mid", 0.7},
	{"sat", 1.4},
}

// OpenLoopLane is one lane's outcome at one load point.
type OpenLoopLane struct {
	OfferedPerSec  float64
	Submitted      int64 // accepted by admission during the window
	Shed           int64 // rejected (ErrShed or ErrBackpressure)
	Completed      int64 // latency samples recorded
	P50, P99, P999 time.Duration
}

// OpenLoopPoint is one offered-load point of the sweep.
type OpenLoopPoint struct {
	Label         string
	LoadFrac      float64
	OfferedPerSec float64
	Lanes         [rt.NumLaneClasses]OpenLoopLane
}

// OpenLoopResult is a whole sweep.
type OpenLoopResult struct {
	CapacityPerSec float64
	Points         []OpenLoopPoint
}

// --- latency histogram ----------------------------------------------
//
// log2-major / 8-way-linear-minor buckets: ~9% worst-case relative
// error, 512 counters per lane, one atomic add to record. The same
// shape HDR-style recorders use, small enough to sit in L2.

const (
	histMinors  = 8
	histBuckets = 64 * histMinors
)

type latencyHist struct {
	buckets [histBuckets]atomic.Int64
}

func (h *latencyHist) record(ns int64) {
	if ns < 1 {
		ns = 1
	}
	u := uint64(ns)
	major := bits.Len64(u) - 1
	var minor uint64
	if major >= 3 {
		minor = (u >> (uint(major) - 3)) & (histMinors - 1)
	}
	h.buckets[major*histMinors+int(minor)].Add(1)
}

// value returns the lower bound of bucket i (the conservative
// representative).
func histValue(i int) int64 {
	major := i / histMinors
	minor := int64(i % histMinors)
	if major < 3 {
		return 1 << uint(major)
	}
	return (8 + minor) << uint(major-3)
}

func (h *latencyHist) total() int64 {
	var t int64
	for i := range h.buckets {
		t += h.buckets[i].Load()
	}
	return t
}

// percentile extracts the q-quantile (q in (0,1]) as the lower bound
// of the bucket where the cumulative count crosses it.
func (h *latencyHist) percentile(q float64) time.Duration {
	total := h.total()
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= rank {
			return time.Duration(histValue(i))
		}
	}
	return time.Duration(histValue(histBuckets - 1))
}

// --- the harness ----------------------------------------------------

// openLoopState is one System instrumented for the sweep: the handler
// spins the configured service time, then records arrival→completion
// latency for stamped requests.
type openLoopState struct {
	sys     *rt.System
	svc     *rt.Service
	base    time.Time
	hist    [rt.NumLaneClasses]latencyHist
	handled atomic.Int64
}

func newOpenLoopState(cfg OpenLoopConfig) (*openLoopState, error) {
	st := &openLoopState{base: time.Now()}
	st.sys = rt.NewSystemOptions(rt.Options{
		Shards:        1,
		Lanes:         rt.NumLaneClasses,
		AsyncQueueCap: cfg.QueueCap,
		// One worker: on the 1-P boxes this harness documents, extra
		// CPU-bound workers add no service rate but hold claimed
		// batches while descheduled, smearing every lane's tail.
		MaxWorkers: 1,
		// No stall supervision: a replacement worker spawned mid-run
		// would reintroduce exactly that smear.
		WorkerStallThreshold: -1,
		// The sweep's producers sleep between Poisson arrivals; without
		// the per-batch yield the CPU-bound worker runs whole scheduler
		// quanta while they wake runnable but cannot publish, and every
		// lane's tail goes quantum-shaped (EXPERIMENTS.md E17).
		CooperativeYield: true,
	})
	spin := cfg.HandlerSpin
	svc, err := st.sys.Bind(rt.ServiceConfig{Name: "openloop", Handler: func(ctx *rt.Ctx, args *rt.Args) {
		var acc uint64 = 0x9e3779b97f4a7c15
		for i := 0; i < spin; i++ {
			acc ^= acc << 13
			acc ^= acc >> 7
			acc ^= acc << 17
		}
		args[3] = acc // keep the spin from folding away
		if args[2] == 1 {
			st.hist[args[1]].record(st.now() - int64(args[0]))
		}
		st.handled.Add(1)
	}})
	if err != nil {
		st.sys.Close()
		return nil, err
	}
	st.svc = svc
	return st, nil
}

func (st *openLoopState) now() int64 { return int64(time.Since(st.base)) }

// calibrate measures this machine's closed-loop service capacity on
// the same system shape: saturating producers, completions per second.
func calibrate(cfg OpenLoopConfig, dur time.Duration) (float64, error) {
	st, err := newOpenLoopState(cfg)
	if err != nil {
		return 0, err
	}
	defer st.sys.Close()
	producers := runtime.GOMAXPROCS(0) + 1 // keep the queue fed even on one P
	var stop atomic.Bool
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := st.sys.NewClientWith(rt.ClientOptions{Shard: 0, Lane: rt.LaneNormal})
			var args rt.Args
			for !stop.Load() {
				// A full ring is the point of a closed-loop burst; any
				// other error ends the producer.
				if err := c.AsyncCall(st.svc.EP(), &args); err != nil &&
					!errors.Is(err, rt.ErrBackpressure) && !errors.Is(err, rt.ErrShed) {
					return
				}
			}
		}()
	}
	time.Sleep(dur / 4) // warm the pool before counting
	start := st.handled.Load()
	t0 := time.Now()
	time.Sleep(dur)
	completed := st.handled.Load() - start
	elapsed := time.Since(t0)
	stop.Store(true)
	wg.Wait()
	if completed == 0 {
		return 0, fmt.Errorf("rtbench: calibration completed zero requests")
	}
	return float64(completed) / elapsed.Seconds(), nil
}

// runPoint drives one offered-load point and collects per-lane
// percentiles.
func runPoint(cfg OpenLoopConfig, offered float64, label string, frac float64) (OpenLoopPoint, error) {
	// Collect whatever the caller left behind (calibration garbage, a
	// preceding benchmark suite) before the clock starts: a deferred GC
	// landing mid-window pauses the only P and pollutes the low-load
	// tails with multi-millisecond outliers that have nothing to do
	// with the shard.
	runtime.GC()
	st, err := newOpenLoopState(cfg)
	if err != nil {
		return OpenLoopPoint{}, err
	}
	defer st.sys.Close()

	var submitted, shed [rt.NumLaneClasses]atomic.Int64
	var accepted atomic.Int64 // every accepted submit, warmup included
	warmupEnd := st.now() + int64(cfg.Warmup)
	stopAt := warmupEnd + int64(cfg.Duration)

	var wg sync.WaitGroup
	for li := 0; li < rt.NumLaneClasses; li++ {
		laneClients := int(float64(cfg.Clients)*laneMix[li] + 0.5)
		if laneClients < 1 {
			laneClients = 1
		}
		perClient := offered * laneMix[li] / float64(laneClients)
		meanGapNs := float64(time.Second) / perClient
		for g := 0; g < laneClients; g++ {
			wg.Add(1)
			go func(li, g int) {
				defer wg.Done()
				c := st.sys.NewClientWith(rt.ClientOptions{Shard: 0, Lane: laneOf[li]})
				rng := rand.New(rand.NewSource(cfg.Seed + int64(li)*1_000_003 + int64(g)))
				var args rt.Args
				args[1] = uint64(li)
				// Absolute Poisson schedule: next is when the request
				// SHOULD arrive; a client that falls behind fires its
				// backlog without sleeping (open-loop catch-up).
				next := st.now() + int64(rng.ExpFloat64()*meanGapNs)
				for {
					if next > stopAt {
						return
					}
					if d := next - st.now(); d > 0 {
						time.Sleep(time.Duration(d))
					}
					rec := next >= warmupEnd
					if rec {
						args[2] = 1
					} else {
						args[2] = 0
					}
					args[0] = uint64(st.now())
					if err := c.AsyncCall(st.svc.EP(), &args); err != nil {
						if rec {
							shed[li].Add(1)
						}
					} else {
						accepted.Add(1)
						if rec {
							submitted[li].Add(1)
						}
					}
					next += int64(rng.ExpFloat64() * meanGapNs)
				}
			}(li, g)
		}
	}
	wg.Wait()

	// Drain: every accepted request completes before we read the
	// histograms. An empty ring is not enough — the worker may still be
	// servicing its claimed batch — so wait for the completion counter
	// to catch the admission counter.
	deadline := time.Now().Add(10 * time.Second)
	for st.handled.Load() != accepted.Load() {
		if time.Now().After(deadline) {
			return OpenLoopPoint{}, fmt.Errorf("rtbench: open-loop drain timed out (handled %d of %d, depth %d)",
				st.handled.Load(), accepted.Load(), st.sys.Stats()[0].AsyncQueueDepth)
		}
		time.Sleep(time.Millisecond)
	}

	pt := OpenLoopPoint{Label: label, LoadFrac: frac, OfferedPerSec: offered}
	for li := 0; li < rt.NumLaneClasses; li++ {
		h := &st.hist[li]
		pt.Lanes[li] = OpenLoopLane{
			OfferedPerSec: offered * laneMix[li],
			Submitted:     submitted[li].Load(),
			Shed:          shed[li].Load(),
			Completed:     h.total(),
			P50:           h.percentile(0.50),
			P99:           h.percentile(0.99),
			P999:          h.percentile(0.999),
		}
	}
	return pt, nil
}

// OpenLoopSweep calibrates capacity, then runs the standard load
// points (low / mid / sat) at the configured client count and mix.
func OpenLoopSweep(cfg OpenLoopConfig) (OpenLoopResult, error) {
	cfg = cfg.withDefaults()
	capacity, err := calibrate(cfg, cfg.Duration/2)
	if err != nil {
		return OpenLoopResult{}, err
	}
	res := OpenLoopResult{CapacityPerSec: capacity}
	for _, p := range OpenLoopPoints {
		pt, err := runPoint(cfg, capacity*p.Frac, p.Label, p.Frac)
		if err != nil {
			return OpenLoopResult{}, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}
