package main

import (
	"math"
	"testing"
)

func ramp(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(i + 1)
	}
	return s
}

// TestPercentileNeedsTenBeyond pins the reporting rule: a percentile is
// reported only when at least ten observations lie beyond its rank.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 0, false},
		{20, 0.5, 10, true},
		{19, 0.5, 0, false},
		{1, 0.5, 0, false},
	} {
		v, ok := percentile(ramp(c.n), 0, c.q)
		if ok != c.ok || (ok && v != c.want) {
			t.Errorf("n=%d q=%v: got (%v, %v), want (%v, %v)", c.n, c.q, v, ok, c.want, c.ok)
		}
	}
}

// TestPercentileCountsShedAsMisses pins that packets never decided rank
// above every decided one: they count toward the sample size, and a
// percentile that lands on one is +Inf, not the slowest decided packet.
func TestPercentileCountsShedAsMisses(t *testing.T) {
	// 990 decided + 10 shed: p99 is the 990th value, the slowest decided.
	if v, ok := percentile(ramp(990), 10, 0.99); !ok || v != 990 {
		t.Errorf("990+10: p99 = (%v, %v), want (990, true)", v, ok)
	}
	// 980 decided + 20 shed: p99 lands on a shed packet.
	if v, ok := percentile(ramp(980), 20, 0.99); !ok || !math.IsInf(v, 1) {
		t.Errorf("980+20: p99 = (%v, %v), want (+Inf, true)", v, ok)
	}
	// Sheds alone can make a percentile reportable: 995 decided are too
	// few for a p99, 995 + 5 shed are enough.
	if _, ok := percentile(ramp(995), 0, 0.99); ok {
		t.Error("995+0: p99 reported from too few samples")
	}
	if v, ok := percentile(ramp(995), 5, 0.99); !ok || v != 990 {
		t.Errorf("995+5: p99 = (%v, %v), want (990, true)", v, ok)
	}
	// Half the packets shed: the median is the slowest decided one; one
	// more shed and it is a miss.
	if v, ok := percentile(ramp(100), 100, 0.5); !ok || v != 100 {
		t.Errorf("100+100: p50 = (%v, %v), want (100, true)", v, ok)
	}
	if v, ok := percentile(ramp(100), 101, 0.5); !ok || !math.IsInf(v, 1) {
		t.Errorf("100+101: p50 = (%v, %v), want (+Inf, true)", v, ok)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median(3,1,2) = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", m)
	}
}

// TestLatencyWindows pins the windowing of open-loop latencies: whole
// windows of latWindow packets, the remainder joined to the last one,
// and one percentile per window, so a stall confined to one window of
// three moves the median of the per-window values not at all.
func TestLatencyWindows(t *testing.T) {
	n := 3*latWindow + latWindow/2
	dec := newDecisions(n)
	dec.at = make([]int64, n)
	r := rep{out: outcome{offered: n}, intervalNs: 10}
	for seq := 0; seq < n; seq++ {
		dec.code[seq] = 1
		dec.at[seq] = r.due(seq) + 100
		if seq < latWindow { // a stall in the first window
			dec.at[seq] += 1e6
		}
	}
	var l latencies
	l.add(r, dec)
	if len(l.p50) != 3 || len(l.p90) != 3 || len(l.all) != n || l.misses != 0 {
		t.Fatalf("got %d p50s, %d p90s, %d samples, %d misses; want 3, 3, %d, 0", len(l.p50), len(l.p90), len(l.all), l.misses, n)
	}
	if m := median(l.p90); m != 100 {
		t.Errorf("median window p90 = %v, want 100", m)
	}
	if l.p90[0] != 1e6+100 {
		t.Errorf("stalled window p90 = %v, want %v", l.p90[0], 1e6+100)
	}
}
