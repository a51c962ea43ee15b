package main

import (
	"encoding/binary"
	"testing"
)

// short runs one short round of a workload.
func short(t *testing.T, workload string, f faults) *outcome {
	t.Helper()
	out, err := runWorkload(workload, config{seed: 7, seconds: 0.4, rounds: 1, faults: f})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCleanRunsPass(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			out := short(t, w, faults{})
			r := out.chk.result()
			if !r.Correct || r.Failed != 0 || r.Attempted < 100 {
				t.Fatalf("clean run: %+v, problems %v", r, out.chk.problemList())
			}
			// Every metric is reported. A 0.4 s round under the race
			// detector can miss every async deadline, so only the latency
			// and setup time must be positive here.
			for name := range e2eUnits {
				v, ok := out.e2e[name]
				if !ok || v < 0 || (name != "ops_per_s" && v == 0) {
					t.Errorf("%s = %v (reported %v)", name, v, ok)
				}
			}
		})
	}
}

func TestWrongHandlerCaught(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			r := short(t, w, faults{wrongResult: true}).chk.result()
			if r.Correct || r.Failed == 0 {
				t.Fatalf("a handler returning wrong values went unnoticed: %+v", r)
			}
		})
	}
}

func TestCorruptPayloadCaught(t *testing.T) {
	r := short(t, "rpc", faults{corruptPayload: true}).chk.result()
	if r.Correct || r.Failed == 0 {
		t.Fatalf("corrupted payload bytes went unnoticed: %+v", r)
	}
}

func TestLostCompletionCaught(t *testing.T) {
	for _, w := range []string{"rpc", "async-lanes"} {
		t.Run(w, func(t *testing.T) {
			out := short(t, w, faults{dropCompletion: true})
			if r := out.chk.result(); r.Correct || r.Failed == 0 {
				t.Fatalf("lost completions went unnoticed: %+v", r)
			}
		})
	}
}

// TestPayloadSumSamplesEveryBlock checks that the rpc checksum reads a
// word in every 4 KB block: corrupting that word changes the sum.
func TestPayloadSumSamplesEveryBlock(t *testing.T) {
	p := make([]byte, 64<<10)
	for i := 0; i < len(p); i += 8 {
		binary.LittleEndian.PutUint64(p[i:], uint64(i)*0x9e3779b97f4a7c15)
	}
	const id = 12345
	want := payloadSum(p, id)
	for b := 0; b < len(p); b += 4096 {
		hit := false
		for off := b; off < b+4096 && !hit; off++ {
			p[off] ^= 0xff
			hit = payloadSum(p, id) != want
			p[off] ^= 0xff
		}
		if !hit {
			t.Fatalf("no byte of block at %d is sampled", b)
		}
	}
}

func TestCovered(t *testing.T) {
	cases := []struct {
		lo, hi int64
		ivs    [][2]int64
		want   int64
	}{
		{0, 100, nil, 0},
		{0, 100, [][2]int64{{10, 20}, {15, 30}}, 20},
		{0, 100, [][2]int64{{50, 60}, {-10, 5}, {90, 200}}, 25},
	}
	for _, c := range cases {
		if got := covered(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("covered(%d, %d, %v) = %d, want %d", c.lo, c.hi, c.ivs, got, c.want)
		}
	}
}

func TestSamplesStayEvenlySpaced(t *testing.T) {
	s := newSamples(8)
	for i := int64(0); i < 64; i++ {
		s.add(i)
	}
	if len(s.v) > 8 || s.stride != 8 {
		t.Fatalf("len %d stride %d", len(s.v), s.stride)
	}
	for i := 1; i < len(s.v); i++ {
		if s.v[i]-s.v[i-1] != 8 {
			t.Fatalf("uneven samples %v", s.v)
		}
	}
}

func TestQuantile(t *testing.T) {
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile([]float64{1, 2, 3, 4, 5}, 0.99); got < 4.9 || got > 5 {
		t.Errorf("p99 = %v", got)
	}
}
