package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileWithSampleCount(t *testing.T) {
	var s Sample
	for i := 1; i <= 200; i++ {
		s.Add(float64(i))
	}
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
	}{
		{50, 100, 100},
		{99, 198, 2},
		{100, 200, 0},
		{0.1, 1, 199},
	} {
		v, n := s.Percentile(c.p)
		if v != c.want || n != 200 {
			t.Errorf("p%g = %v (n=%d), want %v (n=200)", c.p, v, n, c.want)
		}
		if b := Beyond(c.p, n); b != c.beyond {
			t.Errorf("Beyond(p%g, %d) = %d, want %d", c.p, n, b, c.beyond)
		}
	}
	var empty Sample
	if v, n := empty.Percentile(50); !math.IsNaN(v) || n != 0 {
		t.Errorf("empty p50 = %v (n=%d), want NaN (n=0)", v, n)
	}
}

func TestFailuresLandAboveEveryPercentile(t *testing.T) {
	var s Sample
	for i := 0; i < 98; i++ {
		s.Add(1)
	}
	s.AddFailure()
	s.AddFailure()
	if v, _ := s.Percentile(98); v != 1 {
		t.Errorf("p98 = %v, want 1", v)
	}
	if v, _ := s.Percentile(99); !math.IsInf(v, 1) {
		t.Errorf("p99 with 2%% failures = %v, want +Inf", v)
	}
}

func TestDueTimeLatencyWhenTheLoopStalls(t *testing.T) {
	// Requests due every 10ms; the generator stalls for 50ms before the
	// second one, which then takes 2ms. Its latency counts the stall.
	t0 := time.Unix(1000, 0)
	due := t0.Add(10 * time.Millisecond)
	sent := t0.Add(60 * time.Millisecond)
	done := sent.Add(2 * time.Millisecond)
	if got := DueLatency(due, done); got != 52*time.Millisecond {
		t.Errorf("DueLatency = %v, want 52ms", got)
	}
	if got := Lateness(due, sent); got != 50*time.Millisecond {
		t.Errorf("Lateness = %v, want 50ms", got)
	}
	if got := Lateness(due, due.Add(-time.Millisecond)); got != 0 {
		t.Errorf("Lateness of an early send = %v, want 0", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []Span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},   // overlaps a
		{Name: "c", Parent: 0, Start: 90, End: 120},  // runs past the root
		{Name: "a.1", Parent: 1, Start: 12, End: 18}, // grandchild: not the root's
	}
	want := []int64{
		100 - (50 - 10) - (100 - 90), // root minus merged [10,50] and clipped [90,100]
		20 - 6,
		30,
		30,
		6,
	}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestErrorRateAccounting(t *testing.T) {
	var tl Tally
	for i := 0; i < 8; i++ {
		tl.Note(true)
	}
	tl.Note(false)
	tl.Note(false)
	if tl.Attempted != 10 || tl.Failed != 2 || tl.ErrorRate() != 0.2 {
		t.Fatalf("tally = %+v rate %v, want 10 attempted, 2 failed, 0.2", tl, tl.ErrorRate())
	}
	// A wrong answer found later turns one success into a failure.
	tl.Demote()
	if tl.Failed != 3 || tl.ErrorRate() != 0.3 {
		t.Errorf("after demote: %+v rate %v, want 3 failed, 0.3", tl, tl.ErrorRate())
	}
	// Never more failures than attempts.
	for i := 0; i < 20; i++ {
		tl.Demote()
	}
	if tl.Failed != tl.Attempted {
		t.Errorf("failed %d exceeds attempted %d", tl.Failed, tl.Attempted)
	}
	var zero Tally
	if zero.ErrorRate() != 0 {
		t.Errorf("empty tally rate = %v, want 0", zero.ErrorRate())
	}
}

func TestMedianAndRatio(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if r := ratio(1, 0); r != 0 {
		t.Errorf("ratio(1,0) = %v, want 0", r)
	}
}

func TestPassCapacityCountsWholePasses(t *testing.T) {
	// Ten reads of a 4-read cycle, one every 10ms, except that read 6
	// completes last, at 200ms: the two whole passes (reads 0-7) end
	// at 200ms, and the partial third pass is not counted.
	done := make([]time.Duration, 10)
	for i := range done {
		done[i] = time.Duration(i+1) * 10 * time.Millisecond
	}
	done[6] = 200 * time.Millisecond
	if got := PassCapacity(done, 4); math.Abs(got-40) > 1e-9 {
		t.Errorf("capacity = %v, want 8 reads / 0.2s = 40", got)
	}
	// No whole pass: every read counts.
	if got := PassCapacity(done[:3], 4); math.Abs(got-100) > 1e-9 {
		t.Errorf("partial pass = %v, want 3 reads / 0.03s = 100", got)
	}
	if got := PassCapacity(nil, 4); !math.IsNaN(got) {
		t.Errorf("no reads = %v, want NaN", got)
	}
}
