// Command benchjson runs the rt latency/throughput benchmarks (the
// same bodies `go test -bench` runs, via internal/rtbench) plus quick
// Figure 2/3 simulator points, and emits BENCH_rt.json in the stable
// hurricane/bench/v1 schema. The artifact records before/after pairs —
// e.g. the channel async baseline vs the lock-free ring path — so perf
// PRs check their claims into the repo instead of a commit message.
//
// Usage:
//
//	go run ./cmd/benchjson -o BENCH_rt.json [-benchtime 100ms]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"hurricane/internal/experiments"
	"hurricane/internal/report"
	"hurricane/internal/rtbench"
)

func main() {
	testing.Init()
	out := flag.String("o", "BENCH_rt.json", "output path for the JSON report")
	benchtime := flag.String("benchtime", "", `per-benchmark time or count, e.g. "100ms" or "2000x" (default: testing's 1s)`)
	openloopDur := flag.Duration("openloop-dur", 0, "open-loop measurement window per load point (default: the harness's 2s; CI uses a short one)")
	flag.Parse()
	if *benchtime != "" {
		if err := flag.Set("test.benchtime", *benchtime); err != nil {
			fatal(err)
		}
	}

	r := report.NewBenchReport()

	rtBench := func(name string, fn func(*testing.B)) {
		res := testing.Benchmark(fn)
		if res.N <= 0 {
			fatal(fmt.Errorf("benchmark %s ran zero iterations", name))
		}
		ns := float64(res.T.Nanoseconds()) / float64(res.N)
		fmt.Fprintf(os.Stderr, "%-26s %12.1f ns/op   %d iterations\n", name, ns, res.N)
		r.Add(report.BenchEntry{Name: name, Kind: "rt", Iterations: res.N, NsPerOp: ns})
	}
	rtBench("rt_call", rtbench.SyncCall)
	rtBench("rt_call_pooled", rtbench.SyncCallPooled)
	rtBench("rt_call_deadline", rtbench.SyncCallDeadline)
	rtBench("rt_call_deadline_short", rtbench.SyncCallDeadlineShort)
	rtBench("rt_call_parallel", rtbench.SyncCallParallel)
	rtBench("rt_call_parallel_setup_held", rtbench.SyncCallParallelSetupHeld)
	rtBench("rt_call_parallel_pooled", rtbench.SyncCallParallelPooled)
	rtBench("rt_central_parallel", rtbench.CentralParallel)
	rtBench("rt_channel_parallel", rtbench.ChannelParallel)
	rtBench("rt_async_channel", rtbench.AsyncChannelBaseline)
	rtBench("rt_async_ring", rtbench.Async)
	rtBench("rt_async_batch", rtbench.AsyncBatch)
	rtBench("rt_async_channel_mp", rtbench.AsyncChannelBaselineMultiProducer)
	rtBench("rt_async_ring_mp", rtbench.AsyncMultiProducer)
	rtBench("rt_async_ring_lanes", rtbench.AsyncLanes)
	rtBench("rt_async_ring_lanes_tenant", rtbench.AsyncLanesTenant)
	for _, n := range rtbench.PayloadSizes {
		rtBench("rt_payload_zc_"+sizeLabel(n), rtbench.PayloadZeroCopy(n))
		rtBench("rt_payload_copy_"+sizeLabel(n), rtbench.PayloadCopy(n))
	}
	for _, n := range []int{64 << 10, 1 << 20} { // staged lane: at/above threshold
		rtBench("rt_payload_offload_"+sizeLabel(n), rtbench.PayloadOffload(n))
		rtBench("rt_payload_copy_async_"+sizeLabel(n), rtbench.PayloadCopyAsync(n))
	}

	for _, cfg := range experiments.StandardFigure2Configs() {
		res, err := experiments.RunFigure2One(cfg)
		if err != nil {
			fatal(err)
		}
		r.Add(report.BenchEntry{
			Name:    "fig2_" + slug(cfg.Label()),
			Kind:    "sim",
			Metrics: map[string]float64{"sim_us_per_call": res.TotalMicros},
		})
	}
	for _, mode := range []experiments.Fig3Mode{experiments.DifferentFiles, experiments.SingleFile} {
		res, err := experiments.RunFigure3(8, mode)
		if err != nil {
			fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		r.Add(report.BenchEntry{
			Name:    fmt.Sprintf("fig3_%s_procs%d", slug(mode.String()), last.Procs),
			Kind:    "sim",
			Metrics: map[string]float64{"sim_calls_per_sec": last.CallsPerSecond},
		})
	}

	// Open-loop macrobenchmark: Poisson arrivals at fractions of the
	// calibrated capacity, per-lane tail percentiles (see
	// internal/rtbench/openloop.go). NsPerOp carries each lane's p99 so
	// the comparisons below read as tail-degradation ratios.
	olres, err := rtbench.OpenLoopSweep(rtbench.OpenLoopConfig{Duration: *openloopDur})
	if err != nil {
		fatal(err)
	}
	r.Add(report.BenchEntry{
		Name:    "rt_openloop_capacity",
		Kind:    "openloop",
		Metrics: map[string]float64{"capacity_rps": olres.CapacityPerSec},
	})
	fmt.Fprintf(os.Stderr, "%-26s %12.0f req/s calibrated\n", "rt_openloop_capacity", olres.CapacityPerSec)
	for _, pt := range olres.Points {
		for li, lane := range pt.Lanes {
			name := fmt.Sprintf("rt_openloop_%s_%s", pt.Label, rtbench.LaneNames[li])
			r.Add(report.BenchEntry{
				Name:       name,
				Kind:       "openloop",
				Iterations: int(lane.Completed),
				NsPerOp:    float64(lane.P99.Nanoseconds()),
				Metrics: map[string]float64{
					"load_frac":   pt.LoadFrac,
					"offered_rps": lane.OfferedPerSec,
					"p50_ns":      float64(lane.P50.Nanoseconds()),
					"p999_ns":     float64(lane.P999.Nanoseconds()),
					"submitted":   float64(lane.Submitted),
					"shed":        float64(lane.Shed),
				},
			})
			fmt.Fprintf(os.Stderr, "%-26s %12.1f ns/op (p99)  shed %d\n", name, float64(lane.P99.Nanoseconds()), lane.Shed)
		}
	}

	// Comparisons record before/after pairs of this repo's perf claims:
	// the channel→ring substitution on the async path, and the
	// pooled→held CD substitution (plus replicated service tables) on
	// the sync path. Design-shape comparisons (shards vs central, sync
	// vs channel server) stay raw entries — their story is scaling with
	// contention, not a single ratio.
	for _, cmp := range [][3]string{
		{"sync_held_vs_pooled", "rt_call_pooled", "rt_call"},
		{"sync_deadline_overhead", "rt_call", "rt_call_deadline"},
		{"sync_scaling_held_vs_pooled", "rt_call_parallel_pooled", "rt_call_parallel"},
		{"async_ring_vs_channel", "rt_async_channel", "rt_async_ring"},
		{"async_batch_vs_channel", "rt_async_channel", "rt_async_batch"},
		{"async_ring_vs_channel_mp", "rt_async_channel_mp", "rt_async_ring_mp"},
		{"payload_zero_copy_vs_copy_64b", "rt_payload_copy_64b", "rt_payload_zc_64b"},
		{"payload_zero_copy_vs_copy_4k", "rt_payload_copy_4k", "rt_payload_zc_4k"},
		{"payload_zero_copy_vs_copy_64k", "rt_payload_copy_64k", "rt_payload_zc_64k"},
		{"payload_zero_copy_vs_copy_1m", "rt_payload_copy_1m", "rt_payload_zc_1m"},
		{"payload_offload_vs_inline_64k", "rt_payload_copy_async_64k", "rt_payload_offload_64k"},
		{"payload_offload_vs_inline_1m", "rt_payload_copy_async_1m", "rt_payload_offload_1m"},
		{"async_lanes_vs_single", "rt_async_ring_lanes", "rt_async_ring"},
		{"async_tenant_overhead", "rt_async_ring_lanes", "rt_async_ring_lanes_tenant"},
		// Open-loop tail ratios, read as before/after = how many times
		// WORSE the before side's p99 is. crit_sat_vs_low is the QoS
		// claim itself (critical stays flat under 1.4x-capacity
		// overload: want ~1-2x); be_sat_vs_low shows the same overload
		// collapsing the scavenger class (want >=10x); lane_gap_sat is
		// the spread between the two lanes at saturation.
		{"openloop_crit_sat_vs_low", "rt_openloop_sat_critical", "rt_openloop_low_critical"},
		{"openloop_be_sat_vs_low", "rt_openloop_sat_besteffort", "rt_openloop_low_besteffort"},
		{"openloop_lane_gap_sat", "rt_openloop_sat_besteffort", "rt_openloop_sat_critical"},
	} {
		if err := r.Compare(cmp[0], cmp[1], cmp[2]); err != nil {
			fatal(err)
		}
	}
	for _, c := range r.Comparisons {
		fmt.Fprintf(os.Stderr, "%-26s %.2fx (%s -> %s)\n", c.Name, c.Speedup, c.Before, c.After)
	}

	data, err := r.JSON()
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}

// sizeLabel renders a payload size the way benchmark names spell it:
// 64b, 4k, 64k, 1m.
func sizeLabel(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dm", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dk", n>>10)
	default:
		return fmt.Sprintf("%db", n)
	}
}

func slug(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			if n := b.Len(); n > 0 && b.String()[n-1] != '_' {
				b.WriteByte('_')
			}
		}
	}
	return strings.Trim(b.String(), "_")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
