package main

import (
	"math"
	"sort"
	"time"
)

// Sample is a set of latency observations in milliseconds. A failed
// operation is recorded as +Inf: it misses every latency limit, so it
// lands above every percentile it can reach.
type Sample struct {
	vals []float64
}

// Add records one observation in milliseconds.
func (s *Sample) Add(ms float64) { s.vals = append(s.vals, ms) }

// AddDuration records one observation.
func (s *Sample) AddDuration(d time.Duration) { s.Add(float64(d) / float64(time.Millisecond)) }

// AddFailure records an operation that never produced a correct answer.
func (s *Sample) AddFailure() { s.Add(math.Inf(1)) }

// N is the number of observations behind every percentile.
func (s *Sample) N() int { return len(s.vals) }

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// and the sample count it rests on; 0 observations give NaN.
func (s *Sample) Percentile(p float64) (float64, int) {
	n := len(s.vals)
	if n == 0 {
		return math.NaN(), 0
	}
	sorted := append([]float64(nil), s.vals...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n
}

// Beyond counts the observations strictly above the p-th percentile's
// rank: the guide's rule reports a percentile only when at least ten
// samples lie beyond it.
func Beyond(p float64, n int) int {
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank > n {
		rank = n
	}
	return n - rank
}

// DueLatency is the open-loop latency of one request: from the moment
// it was due to be sent until its answer arrived. When the generator
// stalls, a request is sent late and the lateness is charged to it, so
// a stall shows in the percentiles instead of silently thinning load.
func DueLatency(due, done time.Time) time.Duration { return done.Sub(due) }

// Lateness is how far behind schedule the generator sent a request
// (never negative: a request sent early is sent on time).
func Lateness(due, sent time.Time) time.Duration {
	if d := sent.Sub(due); d > 0 {
		return d
	}
	return 0
}

// Tally counts operations attempted and failed. A failure is a
// transport error, a non-2xx status or wrong bytes; each operation is
// attempted once and fails at most once.
type Tally struct {
	Attempted int
	Failed    int
}

// Note records one operation's outcome.
func (t *Tally) Note(ok bool) {
	t.Attempted++
	if !ok {
		t.Failed++
	}
}

// Demote turns one earlier success into a failure: an answer first
// accepted on its status, later found wrong by a correctness check.
func (t *Tally) Demote() {
	if t.Failed < t.Attempted {
		t.Failed++
	}
}

// ErrorRate is failures over attempts (0 when nothing was attempted).
func (t Tally) ErrorRate() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed) / float64(t.Attempted)
}

// Span is one timed interval of the traced pass. Spans of one request
// share ReqID; Parent is the index of the enclosing span in the same
// trace, or -1 for a root.
type Span struct {
	Name   string `json:"name"`
	ReqID  int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's length in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// SelfTimes returns each span's self time: its duration minus the part
// of its interval covered by its direct children. Overlapping children
// are merged first, so concurrent child work is not subtracted twice,
// and child time outside the parent's interval is ignored.
func SelfTimes(spans []Span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		ivs := make([]iv, 0, len(children[i]))
		for _, c := range children[i] {
			a, b := spans[c].Start, spans[c].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a <= curB:
				if v.b > curB {
					curB = v.b
				}
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if open {
			covered += curB - curA
		}
		out[i] = s.Dur() - covered
	}
	return out
}

// median returns the median of xs (NaN when empty); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a counter that saw no traffic).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// PassCapacity is the closed loop's throughput over whole passes of
// its read cycle. done[i] is when read i completed, and every read
// taken has completed; a failed read fails the run, so the reads are
// the correct ones. The figure is the reads of the whole passes over
// the time the last of them took to complete, so every run's figure
// rests on the same reads; with no whole pass it counts every read.
func PassCapacity(done []time.Duration, cycle int) float64 {
	n := len(done) / cycle * cycle
	if n == 0 {
		n = len(done)
	}
	if n == 0 {
		return math.NaN()
	}
	var end time.Duration
	for _, d := range done[:n] {
		end = max(end, d)
	}
	return float64(n) / end.Seconds()
}
