package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// Spans recorded by a traced pass. The benchmark times its own calls
// into rt's public functions; rt itself carries no instrumentation.
// Each load goroutine appends to its own spanLog (no locks), the logs
// are merged when the pass ends, per-layer metrics are derived from the
// merged spans, and the spans are written out when the run ends.

// Span names.
const (
	spCall         uint8 = iota // Client.Call, callpath
	spHandler                   // a handler body, timed inside the handler
	spRPC                       // one rpc operation: payload, CallDeadline, audit record
	spAlloc                     // Client.AllocPayload
	spAttach                    // Client.AttachBytes
	spCallDeadline              // Client.CallDeadline
	spView                      // Ctx.Payload inside the rpc handler
	spFlush                     // Batch.Flush
	spDue                       // async-lanes: due time to AsyncCall start (generator lateness)
	spSubmit                    // Client.AsyncCall
	spWait                      // AsyncCall return to handler start
)

var spanNames = [...]string{
	spCall:         "client.Call",
	spHandler:      "handler",
	spRPC:          "rpc.op",
	spAlloc:        "payload.AllocPayload",
	spAttach:       "payload.AttachBytes",
	spCallDeadline: "deadline.CallDeadline",
	spView:         "payload.View",
	spFlush:        "batch.Flush",
	spDue:          "gen.late",
	spSubmit:       "lane.AsyncCall",
	spWait:         "lane.wait",
}

// span is one timed interval. aux carries a span-specific attribute:
// the payload size for payload spans, the lane index (plus
// auxEmptyQueue) for async-lanes spans.
type span struct {
	start, end int64
	id         uint64 // request id; spans of one request share it
	parent     int32  // index of the causing span in the same log, -1 for none
	aux        uint32
	name       uint8
}

// auxEmptyQueue marks an async request submitted when every earlier
// accepted request had already completed.
const auxEmptyQueue = 1 << 16

type spanLog struct {
	workload string
	spans    []span
}

func newSpanLog(capacity int) *spanLog { return &spanLog{spans: make([]span, 0, capacity)} }

// add appends a span and returns its index, for use as a parent.
func (l *spanLog) add(name uint8, id uint64, parent int32, start, end int64, aux uint32) int32 {
	l.spans = append(l.spans, span{start: start, end: end, id: id, parent: parent, aux: aux, name: name})
	return int32(len(l.spans) - 1)
}

// merge appends other's spans, rebasing their parent indices.
func (l *spanLog) merge(other *spanLog) {
	off := int32(len(l.spans))
	for _, s := range other.spans {
		if s.parent >= 0 {
			s.parent += off
		}
		l.spans = append(l.spans, s)
	}
}

// durations returns the durations of the named spans accepted by keep
// (nil keeps all).
func (l *spanLog) durations(name uint8, keep func(span) bool) []int64 {
	var out []int64
	for _, s := range l.spans {
		if s.name == name && (keep == nil || keep(s)) {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// selfTimes returns, for each named span, its duration minus the part
// of its interval that its child spans cover.
func (l *spanLog) selfTimes(name uint8) []int64 {
	children := map[int32][][2]int64{}
	for _, s := range l.spans {
		if s.parent >= 0 && l.spans[s.parent].name == name {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	var out []int64
	for i, s := range l.spans {
		if s.name != name {
			continue
		}
		out = append(out, (s.end-s.start)-covered(s.start, s.end, children[int32(i)]))
	}
	return out
}

// covered is the length of [lo, hi) that the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	slices.SortFunc(ivs, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// writeSpans writes every traced pass's spans as gzip-compressed
// tab-separated lines and returns the file's path.
func writeSpans(dir, workload string, seed uint64, logs []*spanLog) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.tsv.gz", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return "", err
	}
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "workload\tspan\tname\trequest\tparent\tstart_ns\tend_ns\taux")
	for _, l := range logs {
		for i, s := range l.spans {
			fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%d\t%d\t%d\t%d\n",
				l.workload, i, spanNames[s.name], s.id, s.parent, s.start, s.end, s.aux)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
