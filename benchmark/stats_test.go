package main

import (
	"math"
	"testing"
	"time"

	"pipette/internal/harness"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	q1, med, q3 := quartiles(xs)
	if !near(q1, 2.75) || !near(med, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
	if got := median([]float64{4, 1}); got != 2.5 {
		t.Errorf("median of two = %v, want 2.5", got)
	}
	if q1, _, q3 := quartiles([]float64{1, 2}); q1 != 1 || q3 != 2 {
		t.Errorf("quartiles of two = %v %v, want the sample range 1 2", q1, q3)
	}
	if median(nil) != 0 {
		t.Error("median of nothing should be 0")
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{300, 95}, // 15 beyond
		{200, 95}, // exactly 10 beyond
		{199, 100 * (1 - 10.0/199)},
		{100, 90},
		{20, 50},
		{19, 50}, // nothing above the median qualifies
		{0, 50},
	} {
		if got := tailPercent(tc.n, 95); !near(got, tc.want) {
			t.Errorf("tailPercent(%d, 95) = %v, want %v", tc.n, got, tc.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, pct := tail(xs, 95)
	if pct != 90 || v < 90 || v > 92 {
		t.Errorf("tail of 100 samples = %v at p%v, want about 91 at p90", v, pct)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{2, 8}); !near(got, 4) {
		t.Errorf("geomean(2, 8) = %v, want 4", got)
	}
	if got := geomean([]float64{1, 10, 100}); !near(got, 10) {
		t.Errorf("geomean(1, 10, 100) = %v, want 10", got)
	}
	if geomean(nil) != 0 || geomean([]float64{3, 0}) != 0 {
		t.Error("geomean of nothing, or of a non-positive value, should be 0")
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "loop", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "job", Parent: 0, Start: ms(10), End: ms(50)},  // two clients
		{Name: "job", Parent: 0, Start: ms(30), End: ms(70)},  // overlapping
		{Name: "job", Parent: 0, Start: ms(90), End: ms(120)}, // reaches past the parent
		{Name: "submit", Parent: 1, Start: ms(10), End: ms(15)},
		{Name: "open", Parent: 0, Start: ms(80), End: -1}, // never closed
	}
	self := selfTimes(spans)
	// loop: 100 - union([10,70], [90,100]) = 100 - 70
	want := []time.Duration{ms(30), ms(35), ms(40), ms(30), ms(5), 0}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %v, want %v", i, spans[i].Name, self[i], want[i])
		}
	}
	tr := &tracer{spans: spans}
	under := tr.selfUnder(0)
	if got := under["job"]; !near(got, 0.105) {
		t.Errorf("self time of jobs under the loop = %v s, want 0.105", got)
	}
	if _, ok := under["loop"]; ok {
		t.Error("selfUnder counted the root itself")
	}
}

func TestJobMixReproducibleFromSeed(t *testing.T) {
	var keys []harness.Key
	for i := 0; i < 55; i++ {
		keys = append(keys, harness.Key{App: "app", Variant: "v", Input: string(rune('A' + i))})
	}
	a, b, c := jobMix(keys, 300, 7), jobMix(keys, 300, 7), jobMix(keys, 300, 8)
	same := 0
	distinct := map[harness.Key]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs between two mixes of one seed: %v and %v", i, a[i], b[i])
		}
		if a[i] == c[i] {
			same++
		}
		distinct[a[i]]++
	}
	if same == len(a) {
		t.Error("another seed drew the same mix")
	}
	hottest := 0
	for _, n := range distinct {
		hottest = max(hottest, n)
	}
	if len(distinct) < 10 || len(distinct) == len(a) || hottest < 30 {
		t.Errorf("mix has %d distinct cells of %d jobs, hottest drawn %d times: want a skewed mix with duplicates", len(distinct), len(a), hottest)
	}
	// The hottest cell is the first of the matrix's canonical order, whatever
	// the seed: the traffic pattern does not depend on it.
	if distinct[keys[0]] != hottest {
		t.Errorf("hottest cell was drawn %d times but keys[0] only %d", hottest, distinct[keys[0]])
	}
	if got := jobMix(keys[:1], 5, 1); len(got) != 5 || got[4] != keys[0] {
		t.Errorf("one-cell matrix: got %v", got)
	}
}
