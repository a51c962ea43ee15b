// Command rtperf is the end-to-end benchmark of the hurricane/rt call
// facility. It drives rt only through its public API, from one process,
// with at most nproc load goroutines, and checks every result.
//
// Usage, from the repository root:
//
//	bash rtperf/run.sh --workload <callpath|rpc|async-lanes> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the run measures the named workload untraced and prints
// the end-to-end metrics. With --trace 1 it traces every workload (each
// layer is loaded by one of them), prints the per-layer metrics, and
// writes the recorded spans under .bench_build/spans/. The last line of
// standard output is one JSON object: correct, attempted, failed and
// metrics. README.md in this directory documents the workloads, the
// metrics and what each per-layer metric should move.
//
//ppc:boundary -- benchmark harness: measures rt from outside its call path
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// workloadNames are the workloads in the order a traced run visits them.
var workloadNames = []string{"callpath", "rpc", "async-lanes"}

// roundsPerRun is how many times an untraced run sets its workload up,
// measures it and tears it down. setup_s is the median over the rounds;
// every other metric is the trimmed mean over them. Each round builds
// its System and clients afresh, so the rounds also average over where
// those objects land on the heap.
const roundsPerRun = 10

// roundsPerPass is the same for each pass of a traced run.
const roundsPerPass = 3

// config is one measured pass of one workload.
type config struct {
	seed    uint64
	seconds float64
	traced  bool
	rounds  int
	faults  faults
}

// faults break the system under test on purpose, so the benchmark's own
// tests can show that its output checks catch a wrong result. The
// benchmark itself never sets them.
type faults struct {
	// wrongResult makes every handler return a value not derived from
	// its arguments (async-lanes: a wrong lane tag).
	wrongResult bool
	// corruptPayload flips one byte of every rpc payload after the
	// caller has computed the payload's checksum.
	corruptPayload bool
	// dropCompletion makes the audit and async-lanes handlers skip
	// recording every 97th request, as if it never completed.
	dropCompletion bool
}

// round is what one set-up, measure, tear-down cycle reports.
type round struct {
	// setup is the seconds spent building the System, services and
	// clients and warming them up.
	setup float64
	// e2e holds the end-to-end metrics every workload reports.
	e2e map[string]float64
	// named holds the workload's own end-to-end numbers under the names
	// README.md uses (call_rate_1, rpc_mb_per_s, ...).
	named map[string]float64
	// layers holds the per-layer metrics of a traced round.
	layers map[string]float64
	spans  *spanLog
}

func newRound(setup float64) *round {
	return &round{setup: setup, e2e: map[string]float64{}, named: map[string]float64{}, layers: map[string]float64{}}
}

// outcome is what one pass reports: each metric's trimmed mean over
// rounds, and the median setup time.
type outcome struct {
	e2e, named, layers map[string]float64
	// perRound keeps each round's end-to-end metrics, for the detail line.
	perRound []map[string]float64
	chk      *checker
	spans    *spanLog
}

var workloads = map[string]func(config, time.Duration, *checker) (*round, error){
	"callpath":    callpathRound,
	"rpc":         rpcRound,
	"async-lanes": lanesRound,
}

// runWorkload runs cfg.rounds rounds of workload name, splitting
// cfg.seconds between them.
func runWorkload(name string, cfg config) (*outcome, error) {
	fn := workloads[name]
	out := &outcome{chk: &checker{}}
	goroutines := runtime.NumGoroutine()
	dur := time.Duration(cfg.seconds / float64(cfg.rounds) * float64(time.Second))
	var rounds []*round
	for i := 0; i < cfg.rounds; i++ {
		runtime.GC()
		r, err := fn(cfg, dur, out.chk)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
	}
	leakCheck(out.chk, goroutines)
	combine := func(get func(*round) map[string]float64) map[string]float64 {
		m := map[string]float64{}
		for name := range get(rounds[0]) {
			var xs []float64
			for _, r := range rounds {
				xs = append(xs, get(r)[name])
			}
			m[name] = trimmedMean(xs)
		}
		return m
	}
	out.e2e = combine(func(r *round) map[string]float64 { return r.e2e })
	out.named = combine(func(r *round) map[string]float64 { return r.named })
	out.layers = combine(func(r *round) map[string]float64 { return r.layers })
	var setups []float64
	for _, r := range rounds {
		setups = append(setups, r.setup)
		r.e2e["setup_s"] = r.setup
		out.perRound = append(out.perRound, r.e2e)
		if r.spans != nil {
			if out.spans == nil {
				out.spans = newSpanLog(0)
			}
			out.spans.merge(r.spans)
		}
	}
	out.e2e["setup_s"] = quantile(setups, 0.5)
	return out, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// e2eUnits are the end-to-end metrics and their units.
var e2eUnits = map[string]string{
	"ops_per_s": "1/s",
	"p50_us":    "us",
	"setup_s":   "s",
}

func main() {
	workload := flag.String("workload", "", "workload: callpath, rpc or async-lanes")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()

	if err := run(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "rtperf:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds float64, trace int) error {
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if _, ok := workloads[workload]; !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
	}
	host := hostInfo()
	var res result
	detail := map[string]any{"host": host, "workload": workload, "seed": seed, "trace": trace}
	if trace == 0 {
		out, err := runWorkload(workload, config{seed: seed, seconds: seconds, rounds: roundsPerRun})
		if err != nil {
			return err
		}
		res = out.chk.result()
		res.Metrics = map[string]metricValue{}
		for name, unit := range e2eUnits {
			v, ok := out.e2e[name]
			if !ok {
				return fmt.Errorf("workload %s did not report %s", workload, name)
			}
			res.Metrics[name] = metricValue{v, unit}
		}
		detail["named"] = out.named
		detail["rounds"] = out.perRound
		detail["refused"] = out.chk.refused.Load()
		detail["problems"] = out.chk.problemList()
	} else {
		var err error
		res, err = tracedRun(workload, seed, seconds, detail)
		if err != nil {
			return err
		}
	}
	line, err := json.Marshal(detail)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// tracedRun measures every workload twice for seconds/3 each, untraced
// then traced, roundsPerPass rounds a pass. The per-layer metrics come from the traced passes; the
// untraced passes give the workloads' own end-to-end numbers and the
// trace overhead. Each layer is loaded by one workload (README.md), so
// whichever workload is named, the traced run covers all three and
// reports the same fixed set of per-layer metrics.
func tracedRun(named string, seed uint64, seconds float64, detail map[string]any) (result, error) {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	overhead := map[string]map[string]float64{}
	var all []*spanLog
	var problems []string
	var refused int64
	pass := seconds / 3
	for _, w := range workloadNames {
		untraced, err := runWorkload(w, config{seed: seed, seconds: pass, rounds: roundsPerPass})
		if err != nil {
			return res, err
		}
		traced, err := runWorkload(w, config{seed: seed, seconds: pass, rounds: roundsPerPass, traced: true})
		if err != nil {
			return res, err
		}
		for _, o := range []*outcome{untraced, traced} {
			r := o.chk.result()
			res.Attempted += r.Attempted
			res.Failed += r.Failed
			res.Correct = res.Correct && r.Correct
			refused += o.chk.refused.Load()
			problems = append(problems, o.chk.problemList()...)
		}
		for name, v := range traced.layers {
			unit, ok := layerUnits[name]
			if !ok {
				return res, fmt.Errorf("workload %s reported unlisted per-layer metric %s", w, name)
			}
			// shard.cds_created is reported by two workloads: sum it.
			res.Metrics[name] = metricValue{res.Metrics[name].Value + v, unit}
		}
		for name, v := range untraced.named {
			res.Metrics[name] = metricValue{v, namedUnits[name]}
		}
		// Overhead per end-to-end metric: how much worse the traced pass
		// read, as a share of the untraced value.
		per := map[string]float64{}
		sum := 0.0
		for name := range e2eUnits {
			if name == "setup_s" {
				continue
			}
			u, t := untraced.e2e[name], traced.e2e[name]
			worse := (t - u) / u
			if name == "ops_per_s" {
				worse = (u - t) / u
			}
			per[name] = worse
			sum += worse
		}
		overhead[w] = per
		res.Metrics["trace.overhead."+w] = metricValue{sum / float64(len(per)), "ratio"}
		if traced.spans != nil {
			traced.spans.workload = w
			all = append(all, traced.spans)
		}
	}
	for name := range layerUnits {
		if _, ok := res.Metrics[name]; !ok {
			return res, fmt.Errorf("traced run did not report per-layer metric %s", name)
		}
	}
	path, err := writeSpans(spanDir, named, seed, all)
	if err != nil {
		return res, err
	}
	detail["spans"] = path
	detail["trace_overhead"] = overhead
	detail["refused"] = refused
	detail["problems"] = problems
	return res, nil
}

// hostInfo is the host fingerprint printed with every run.
func hostInfo() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo where there is
// one.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// spanDir is where a traced run writes its spans, relative to the
// repository root the benchmark runs from.
const spanDir = ".bench_build/spans"

// now is the benchmark's clock: monotonic nanoseconds since start.
func now() int64 { return int64(time.Since(clockBase)) }

var clockBase = time.Now()
