// Command perfbench is the repository's benchmark. It starts the
// system in-process on repro.PaperConfig() with four shards, drives one
// workload over loopback HTTP from a seeded load generator of at most
// two goroutines and connections, checks every answer, and prints each
// metric by name with its unit and sample count. Run it from the
// repository root:
//
//	bash perfbench/run.sh --workload interactive --seed 1 --seconds 10 --trace 0
//
// Workloads: interactive, paper-batch, ingest-mix and distributed (the
// workloads table below describes them). Every run prints a header
// (machine, seed, workload shape and arrival model), the correctness
// checks, the end-to-end metrics every workload reports (setup_s,
// read_p50_ms, capacity_rps, heap_mb) and then the workload's own
// open-loop and ingest metrics (error_rate, recommend_p50_ms,
// recommend_p99_ms, stream_first_frame_p50_ms, rating_ack_p50_ms,
// rating_ack_p99_ms, ingest_visible_p50_ms and the
// first-versus-last-tenth drift figures). With --trace 1 a traced pass
// follows the timed run and reports the per-layer metrics of
// trace.go. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// carrying the shared end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1). A failed check prints correct=false and exits 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run builds and warms its stack;
// setup_s is the median, the last stack serves the measured window.
const setupReps = 3

// runLimit bounds one run, set-up and checks included.
const runLimit = 170 * time.Second

// buildDir holds what a run leaves behind (persistence directories,
// span files), relative to the checkout root it runs from.
const buildDir = ".bench_build"

// workload describes one traffic mix.
type workload struct {
	name    string
	shape   string
	arrival string
	items   int
}

var workloads = []workload{
	{"interactive", "POST /v1/recommend, 1 in 8 to /stream; sizes 2-5 in equal shares, each from a fixed 128-group Zipf-ranked pool; AP/MO/PD1 50/40/10; num_items 600, k 10, periods 1-6",
		fmt.Sprintf("open loop, Poisson %g reads/s for %g%% of the run, then closed loop with %d clients over a fixed %d-read cycle", interactiveRate, openShare*100, clients, closedCycle), interactiveItems},
	{"paper-batch", "POST /v1/recommend/batch, one group x {AP, MO} per call; seeded set of sizes 3/6/9/12 (8/24/6/4 groups); num_items 3900, k 10, periods cycling 1..6",
		"closed loop with 1 client, whole passes over the set", paperItems},
	{"ingest-mix", "interactive's reads plus POST /v1/ratings by participants and non-participant neighbors, each participant rating followed by a read of a group containing the rater; WAL on",
		fmt.Sprintf("open loop, Poisson %g reads/s, then closed-loop reads with %d clients over a fixed %d-read cycle; one writer at %g ratings/s throughout", ingestReadRate, clients, closedCycle, ingestRate), interactiveItems},
	{"distributed", "interactive's reads plus a rating trickle, through a router (view cache 4096) in front of two loopback shard workers owning {0,2} and {1,3}",
		fmt.Sprintf("open loop, Poisson %g reads/s, then closed-loop reads with %d clients over a fixed %d-read cycle; one writer at %g ratings/s throughout", distributedRate, clients, closedCycle, trickleRate), interactiveItems},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func main() {
	var (
		wlName  = flag.String("workload", "", "workload: interactive, paper-batch, ingest-mix or distributed")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = report per-layer metrics from a traced pass")
	)
	flag.Parse()
	wl, ok := findWorkload(*wlName)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload {interactive|paper-batch|ingest-mix|distributed}, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	// A run that cannot finish in time fails instead of hanging.
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(1)
	})
	if err := run(wl, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report prints one metric line and records it.
type report struct {
	metrics map[string]Metric
}

func (r *report) put(name string, v float64, unit string, note string) {
	r.metrics[name] = Metric{Value: v, Unit: unit}
	fmt.Printf("  %-30s %14.4f %-6s %s\n", name, v, unit, note)
}

// pct reports the p-th percentile of s with its sample count and the
// number of samples beyond it.
func (r *report) pct(name string, s *Sample, p float64) {
	v, n := s.Percentile(p)
	r.put(name, v, "ms", fmt.Sprintf("(p%g of n=%d, %d beyond)", p, n, Beyond(p, n)))
}

func run(wl workload, seed int64, seconds float64, traced bool) error {
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%v\n", wl.name, seed, seconds, traced)
	fmt.Printf("machine: nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	fmt.Printf("shape: %s\narrival: %s\n", wl.shape, wl.arrival)

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// Set-up: build and warm the stack setupReps times; the last one
	// serves.
	var (
		setups []float64
		st     *Stack
		c      *Client
	)
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		st, err = StartStack(wl.name, tmp)
		if err != nil {
			return err
		}
		c = NewClient(st.BaseURL)
		if err := Warm(c, st.World.Participants(), wl.items); err != nil {
			c.Close()
			st.Close()
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rep < setupReps-1 {
			c.Close()
			st.Close()
			runtime.GC()
		}
	}
	stackUp := true
	closeStack := func() {
		if stackUp {
			c.Close()
			st.Close()
			stackUp = false
		}
	}
	defer closeStack()

	tr, err := GenTraffic(wl.name, seed, seconds, st.World)
	if err != nil {
		return err
	}
	var before, after StatsSnap
	if err := c.Get("/v1/stats", &before); err != nil {
		return err
	}
	walBefore, wireBefore := st.WALBytes(), st.WireBytes.Load()
	lg := NewLoadgen(c)
	var batches []*BatchRec
	if wl.name == "paper-batch" {
		batches = lg.RunBatches(tr.Batches, time.Duration(seconds*float64(time.Second)))
	} else {
		lg.RunOpen(tr.Open)
		lg.RunClosed(tr.Closed, tr.ClosedRatings, time.Duration(seconds*float64(time.Second))-tr.OpenFor)
	}
	if err := c.Get("/v1/stats", &after); err != nil {
		return err
	}
	window := WindowCounts{
		Before: before, After: after,
		WALBytes:  st.WALBytes() - walBefore,
		WireBytes: st.WireBytes.Load() - wireBefore,
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / 1e6
	res := lg.res

	var (
		layer    map[string]Metric
		verdicts []Verdict
	)
	if traced {
		var v Verdict
		layer, v, err = RunTrace(wl.name, seed, st, c, tr, res, window)
		if err != nil {
			return err
		}
		verdicts = append(verdicts, v)
	}
	closeStack()
	runtime.GC()

	// Correctness: repeats in read-only runs, then the reference world.
	if len(res.Applied) == 0 {
		verdicts = append(verdicts, CheckRepeats(res, batches))
	}
	ref, err := NewReference()
	if err != nil {
		return err
	}
	if wl.name == "paper-batch" {
		verdicts = append(verdicts, VerifyBatches(ref, res, batches, seed)...)
	} else {
		vs, err := VerifyReads(ref, res, seed)
		if err != nil {
			ref.Close()
			return err
		}
		verdicts = append(verdicts, vs...)
	}
	ref.Close()

	correct := res.Tally.Failed == 0
	fmt.Println("correctness:")
	for _, v := range verdicts {
		fmt.Println("  " + v.String())
		correct = correct && v.Bad == 0
	}

	fmt.Println("end-to-end:")
	rep := &report{metrics: map[string]Metric{}}
	rep.put("setup_s", median(setups), "s", fmt.Sprintf("(median of %d set-ups: %s)", len(setups), fmtList(setups)))
	if wl.name == "paper-batch" {
		rep.pct("read_p50_ms", &res.BatchLatency, 50)
		rep.put("capacity_rps", float64(res.Groups)/res.ClosedElapsed.Seconds(), "1/s",
			fmt.Sprintf("(groups answered correctly per second = groups_per_s; %d groups in %d calls over %.2fs)", res.Groups, res.BatchCalls, res.ClosedElapsed.Seconds()))
	} else {
		rep.pct("read_p50_ms", &res.ClosedLatency, 50)
		rep.put("capacity_rps", PassCapacity(res.ClosedDone, len(tr.Closed)), "1/s",
			fmt.Sprintf("(whole passes of the %d-read cycle; %d correct reads in %.2fs, %d clients)", len(tr.Closed), res.ClosedOK, res.ClosedElapsed.Seconds(), clients))
	}
	rep.put("heap_mb", heapMB, "MB", "(HeapAlloc after GC at run end, process-wide)")
	gated := rep.metrics

	// The workload's open-loop and ingest metrics: printed with their
	// sample counts, not part of the result line (see CHANGES.md).
	rep = &report{metrics: map[string]Metric{}}
	rep.put("error_rate", res.Tally.ErrorRate(), "ratio", fmt.Sprintf("(%d failed of %d attempted)", res.Tally.Failed, res.Tally.Attempted))
	if wl.name == "paper-batch" {
		rep.pct("batch_call_p90_ms", &res.BatchLatency, 90)
	} else {
		rep.pct("recommend_p50_ms", &res.Recommend, 50)
		rep.pct("recommend_p99_ms", &res.Recommend, 99)
		rep.pct("stream_first_frame_p50_ms", &res.StreamFirst, 50)
	}
	if len(res.AckMS) > 0 {
		rep.pct("rating_ack_p50_ms", &res.RatingAck, 50)
		rep.pct("rating_ack_p99_ms", &res.RatingAck, 99)
		rep.pct("ingest_visible_p50_ms", &res.Visible, 50)
		// Drift: the first and the last tenth of the ratings (at least
		// one each). Nothing folds the delta log while serving, so
		// pending deltas only grow.
		n := len(res.AckMS)
		k := max(1, n/10)
		for _, part := range []struct {
			name string
			lo   int
		}{{"first_tenth", 0}, {"last_tenth", n - k}} {
			note := fmt.Sprintf("(ratings %d..%d of %d)", part.lo+1, part.lo+k, n)
			rep.put("rating_ack_p50_ms."+part.name, median(res.AckMS[part.lo:part.lo+k]), "ms", note)
			rep.put("dataset.pending_deltas."+part.name, median(res.Pending[part.lo:part.lo+k]), "count", note)
		}
	}

	out := result{Correct: correct, Attempted: res.Tally.Attempted, Failed: res.Tally.Failed, Metrics: gated}
	if traced {
		out.Metrics = layer
	}
	if out.Attempted == 0 {
		return fmt.Errorf("no operation attempted")
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !correct {
		return fmt.Errorf("correctness check failed")
	}
	return nil
}

func fmtList(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(s, " ")
}

// spanFile is where a traced run writes its spans.
func spanFile(wl string, seed int64) string {
	return filepath.Join(buildDir, fmt.Sprintf("spans-%s-%d.jsonl", wl, seed))
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
