package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/liststore"
	"repro/internal/remote"
)

// traceSample is how many requests per consensus the traced pass
// replays one at a time (paper-batch replays fewer: its groups are
// large).
const (
	traceSample      = 8
	traceSamplePaper = 3
)

// prefDivisor maps the 1..5 rating scale onto GRECA's [0,1]
// preferences, as the facade and its list store do.
const prefDivisor = 5

// layerMetric declares one per-layer metric: its unit, which way is
// better, and the end-to-end metric and workload it should move.
type layerMetric struct {
	name, unit, better, moves string
}

// layerMetrics is the per-layer table, in report order. BENCHMARK.json
// lists the same names and units. Every workload reports every metric,
// computed the same way; a layer the workload does not run (the remote
// hop outside distributed, the WAL outside ingest-mix) leaves its
// counters at zero and its spans empty, and reads 0.
var layerMetrics = []layerMetric{
	{"server.overhead_us", "us", "lower", "recommend_p50_ms, capacity_rps / interactive"},
	{"server.coalesce_wait_us", "us", "lower", "recommend_p50_ms / interactive"},
	{"server.coalesce_batch_mean", "count", "higher", "capacity_rps / interactive"},
	{"repro.recommend_us", "us", "lower", "recommend_p50_ms / interactive"},
	{"repro.mux_shared_ratio", "ratio", "higher", "capacity_rps / interactive"},
	{"repro.batch_ms_per_group", "ms", "lower", "capacity_rps (groups_per_s) / paper-batch"},
	{"dataset.candidates_us", "us", "lower", "recommend_p50_ms / interactive"},
	{"dataset.pending_deltas", "count", "lower", "rating_ack_p99_ms / ingest-mix"},
	{"liststore.acquire_hit_us", "us", "lower", "ingest_visible_p50_ms / ingest-mix"},
	{"liststore.build_ms", "ms", "lower", "ingest_visible_p50_ms / ingest-mix"},
	{"liststore.view_hit_ratio", "ratio", "higher", "recommend_p99_ms / ingest-mix"},
	{"cf.predict_batch_ms", "ms", "lower", "ingest_visible_p50_ms / ingest-mix"},
	{"cf.nbhd_retained_ratio", "ratio", "higher", "rating_ack_p50_ms / ingest-mix"},
	{"cf.rowcache_hit_ratio", "ratio", "higher", "none expected; decides the one-view-store deletion"},
	{"engine.assemble_us", "us", "lower", "recommend_p50_ms / interactive"},
	{"affinity.pairs_us", "us", "lower", "capacity_rps (groups_per_s) / paper-batch"},
	{"core.problem_us", "us", "lower", "capacity_rps (groups_per_s) / paper-batch"},
	{"core.run_ms.ap", "ms", "lower", "capacity_rps (groups_per_s) / paper-batch; recommend_p99_ms / interactive"},
	{"core.run_ms.mo", "ms", "lower", "capacity_rps (groups_per_s) / paper-batch; recommend_p99_ms / interactive"},
	{"core.run_ms.pd", "ms", "lower", "recommend_p99_ms / interactive"},
	{"core.us_per_check", "us", "lower", "as core.run_ms.*"},
	{"core.pct_sa", "%", "lower", "explains core.run_ms.* / paper-batch"},
	{"core.checks_per_run", "count", "lower", "explains core.run_ms.* / paper-batch"},
	{"remote.view_multi_ms", "ms", "lower", "recommend_p50_ms / distributed"},
	{"remote.rpcs_per_req", "count", "lower", "recommend_p50_ms / distributed"},
	{"remote.view_rpcs_per_req", "count", "lower", "recommend_p50_ms / distributed"},
	{"remote.view_cache_hit_ratio", "ratio", "higher", "recommend_p50_ms / distributed"},
	{"remote.bytes_per_req", "B", "lower", "recommend_p50_ms / distributed"},
	{"remote.retries", "count", "lower", "error_rate / distributed"},
	{"persist.wal_bytes_per_rating", "B", "lower", "rating_ack_p50_ms / ingest-mix"},
	{"loadgen.late_p99_ms", "ms", "lower", "benchmark health; moves nothing"},
	{"loadgen.sent", "count", "higher", "benchmark health; moves nothing"},
	{"loadgen.succeeded", "count", "higher", "benchmark health; moves nothing"},
	{"loadgen.failed", "count", "lower", "benchmark health; moves nothing"},
	{"trace.coverage_ratio", "ratio", "higher", "share of repro.recommend_us the layer spans cover"},
	{"trace.overhead_ratio", "ratio", "lower", "traced-pass HTTP per group over the timed run's, same request mix"},
}

// WindowCounts are the counter deltas of the measured window.
type WindowCounts struct {
	Before, After StatsSnap
	WALBytes      int64
	WireBytes     int64
}

// tracer records spans in memory.
type tracer struct {
	t0    time.Time
	req   int
	spans []Span
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, Span{Name: name, ReqID: t.req, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

// timed records a span around f.
func (t *tracer) timed(name string, parent int, f func()) {
	i := t.begin(name, parent)
	f()
	t.end(i)
}

// prefetched is an engine.RemotePlane that serves views fetched just
// before (the traced remote.view_multi span) and forwards patch
// predictions to the shard set.
type prefetched struct {
	views []*liststore.View
	set   *remote.ShardSet
}

func (p *prefetched) ViewsMulti([]dataset.UserID) ([]*liststore.View, error) { return p.views, nil }

func (p *prefetched) PredictBatchMulti(group []dataset.UserID, items []dataset.ItemID) ([][]float64, error) {
	return p.set.PredictBatchMulti(group, items)
}

// traceReq is one replayed request.
type traceReq struct {
	wire  wireRequest
	batch bool // sent over /v1/recommend/batch (paper-batch)
	extra bool // not in the timed run's traffic (paper-batch's PD1)
}

// pickTraceSample draws the traced requests: for each consensus of the
// workload, a seeded handful of its requests.
func pickTraceSample(wl string, seed int64, tr *Traffic) []traceReq {
	rng := rand.New(rand.NewSource(seed ^ 0x7ace))
	byCons := map[string][]wireRequest{}
	seen := map[string]bool{}
	add := func(wr wireRequest) {
		k := string(mustJSON(wr))
		if !seen[k] {
			seen[k] = true
			byCons[wr.Consensus] = append(byCons[wr.Consensus], wr)
		}
	}
	n := traceSample
	if wl == "paper-batch" {
		n = traceSamplePaper
		for _, b := range tr.Batches {
			for _, e := range b.Entries {
				add(e)
			}
		}
		// No PD1 traffic at these sizes (a 12-member PD1 group takes
		// seconds); the PD layer is timed on the set's 3-member groups.
		for _, b := range tr.Batches {
			if e := b.Entries[0]; len(e.Group) == 3 {
				e.Consensus = "PD1"
				add(e)
			}
		}
	} else {
		for _, ev := range tr.Open {
			if ev.Read != nil {
				add(ev.Read.Wire)
			}
		}
	}
	var out []traceReq
	for _, c := range sortedKeys(byCons) {
		reqs := byCons[c]
		rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
		if len(reqs) > n {
			reqs = reqs[:n]
		}
		for _, wr := range reqs {
			out = append(out, traceReq{wire: wr, batch: wl == "paper-batch", extra: wl == "paper-batch" && c == "PD1"})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// ownerWorld is the world holding u's hot state: the owning worker in
// distributed, the serving world otherwise.
func ownerWorld(st *Stack, u dataset.UserID) *repro.World {
	sh := st.World.ShardOf(u)
	for i, owns := range workerOwns {
		for _, o := range owns {
			if o == sh && i < len(st.workers) {
				return st.workers[i].world
			}
		}
	}
	return st.World
}

// traced collects the per-request layer timings.
type traced struct {
	http, direct, cands, acquireHit, build, predict         []float64
	assemble, pairs, problem, viewMulti, perCheck, coverage []float64
	httpOver, coalesceOver                                  []float64
	run                                                     map[string][]float64
	sa, total, checks, runs                                 int64
}

// facade replays the world's own sequence of public calls for one
// request under spans, and checks its answer and exact counts against
// the direct call's.
func facade(t *tracer, st *Stack, asm *engine.Assembler, wr wireRequest, direct *repro.Recommendation, tt *traced) (bool, error) {
	w := st.World
	group := groupOf(wr.Group)
	opt, err := options(wr)
	if err != nil {
		return false, err
	}
	root := t.begin("facade", -1)
	var items []dataset.ItemID
	t.timed("dataset.candidates", root, func() { items = w.CandidateItems(group, wr.NumItems) })

	a := asm
	if w.Remote() != nil {
		var res []remote.ViewResult
		t.timed("remote.view_multi", root, func() { res, err = w.Remote().ViewScoresMulti(group) })
		if err != nil {
			return false, err
		}
		views := make([]*liststore.View, len(res))
		for i, r := range res {
			views[i] = liststore.ViewFromScores(r.Scores)
		}
		a = engine.New(w.Source(), 0)
		a.AttachShards(w.Sharding())
		a.AttachListStore(w.ListStore())
		a.AttachRemote(&prefetched{views: views, set: w.Remote()})
	} else {
		for _, u := range group {
			builds := w.ListStore().Stats().ViewBuilds
			i := t.begin("liststore.acquire", root)
			w.ListStore().Acquire(u)
			t.end(i)
			if w.ListStore().Stats().ViewBuilds != builds {
				t.spans[i].Name = "liststore.build"
			}
		}
	}

	// The store serves the slice when it covers at least half of it;
	// otherwise the world assembles dense rows and re-sorts, and so
	// does the replay.
	var (
		va     engine.ViewAssembly
		served bool
	)
	t.timed("engine.assemble", root, func() {
		va, served, err = a.AprefViews(group, items, prefDivisor)
		if err == nil && !served {
			va.Rows, err = a.AprefRows(group, items, prefDivisor)
		}
	})
	if err != nil {
		return false, err
	}

	period := wr.Period - 1
	in := core.Input{Spec: opt.Consensus, K: wr.K, PartitionAffinity: true, Apref: va.Rows}
	t.timed("affinity.pairs", root, func() {
		g := len(group)
		if g < 2 {
			in.Agg = core.NoAffinityAggregator{}
			return
		}
		m := w.AffinityModel()
		in.Agg = core.DiscreteAggregator{Periods: period + 1}
		in.Static = make([]float64, core.NumPairs(g))
		in.Drift = make([][]float64, period+1)
		for i := 0; i < g; i++ {
			for j := i + 1; j < g; j++ {
				in.Static[core.PairIndex(g, i, j)] = m.StaticOf(group[i], group[j])
			}
		}
		for p := 0; p <= period; p++ {
			row := make([]float64, core.NumPairs(g))
			for i := 0; i < g; i++ {
				for j := i + 1; j < g; j++ {
					row[core.PairIndex(g, i, j)] = m.DriftOf(group[i], group[j], p)
				}
			}
			in.Drift[p] = row
		}
	})

	var prob *core.Problem
	t.timed("core.problem", root, func() {
		if served {
			prob, err = core.NewProblemFromViews(in, va.Views)
		} else {
			prob, err = core.NewProblem(in)
		}
	})
	if err != nil {
		return false, err
	}
	defer func() {
		a.Release(in.Apref)
		prob.Release()
	}()
	var res core.Result
	runSpan := t.begin("core.run", root)
	r, err := prob.Runner(core.ModeGRECA)
	if err == nil {
		for !r.Step(1) {
		}
		res, err = r.Result()
	}
	t.end(runSpan)
	t.end(root)
	if err != nil {
		return false, err
	}

	// Exact counts repeat: the replay must read exactly the entries and
	// make exactly the checks the direct call did, with the same answer.
	same := res.Stats == direct.Stats && len(res.TopK) == len(direct.Items)
	for i := 0; same && i < len(res.TopK); i++ {
		d := direct.Items[i]
		is := res.TopK[i]
		same = items[is.Key] == d.Item && is.LB == d.Score && is.UB == d.UpperBound
	}
	runMS := float64(t.spans[runSpan].Dur()) / 1e6
	tt.run[wr.Consensus] = append(tt.run[wr.Consensus], runMS)
	tt.sa += int64(res.Stats.SequentialAccesses)
	tt.total += int64(res.Stats.TotalEntries)
	tt.checks += int64(res.Stats.Checks)
	tt.runs++
	if res.Stats.Checks > 0 {
		tt.perCheck = append(tt.perCheck, runMS*1000/float64(res.Stats.Checks))
	}
	return same, nil
}

// RunTrace replays a seeded sample of the workload's requests one at a
// time, with spans around each layer's public calls, and returns every
// per-layer metric. Tracing is off during the timed run; this pass runs
// after it on the same warm stack.
func RunTrace(wl string, seed int64, st *Stack, c *Client, tr *Traffic, res *Results, win WindowCounts) (map[string]Metric, Verdict, error) {
	verdict := Verdict{Name: "traced replay == direct (exact counts)"}
	w := st.World
	sample := pickTraceSample(wl, seed, tr)
	t := &tracer{t0: time.Now()}
	tt := &traced{run: map[string][]float64{}}

	asm := engine.New(w.Source(), 0)
	asm.AttachShards(w.Sharding())
	asm.AttachListStore(w.ListStore())

	// Private stores time view builds without evicting the serving
	// world's views.
	private := map[*repro.World]*liststore.Store{}

	ctx := context.Background()
	for i, rq := range sample {
		t.req = i
		wr := rq.wire
		group := groupOf(wr.Group)
		opt, err := options(wr)
		if err != nil {
			return nil, verdict, err
		}
		path, body := "/v1/recommend", mustJSON(wr)
		if rq.batch {
			path, body = "/v1/recommend/batch", mustJSON(map[string]any{"requests": []wireRequest{wr}})
		}

		// An untimed call first, so the HTTP and direct legs below
		// both meet the state this request leaves behind.
		if _, err := w.RecommendContext(ctx, group, opt); err != nil {
			return nil, verdict, err
		}
		hs := t.begin("http", -1)
		resp, err := c.Post(path, body, false)
		t.end(hs)
		if err != nil || resp.Status != http.StatusOK {
			return nil, verdict, fmt.Errorf("traced http request: status %d, %v", resp.Status, err)
		}
		var rec *repro.Recommendation
		ds := t.begin("repro.recommend", -1)
		rec, err = w.RecommendContext(ctx, group, opt)
		t.end(ds)
		if err != nil {
			return nil, verdict, err
		}
		cs := t.begin("server.coalesce", -1)
		cres, err := st.Srv.Coalescer().Submit(ctx, repro.Request{Group: group, Options: opt})
		t.end(cs)
		if err == nil {
			err = cres.Err
		}
		if err != nil {
			return nil, verdict, err
		}
		first := len(t.spans)
		same, err := facade(t, st, asm, wr, rec, tt)
		if err != nil {
			return nil, verdict, err
		}
		verdict.Checked++
		if !same {
			verdict.Bad++
		}

		directUS := float64(t.spans[ds].Dur()) / 1e3
		if !rq.extra {
			tt.http = append(tt.http, float64(t.spans[hs].Dur())/1e3)
		}
		tt.direct = append(tt.direct, directUS)
		tt.httpOver = append(tt.httpOver, float64(t.spans[hs].Dur()-t.spans[ds].Dur())/1e3)
		tt.coalesceOver = append(tt.coalesceOver, float64(t.spans[cs].Dur()-t.spans[ds].Dur())/1e3)
		var leaves float64
		for j := first; j < len(t.spans); j++ {
			sp := t.spans[j]
			d := float64(sp.Dur())
			switch sp.Name {
			case "facade":
				continue
			case "dataset.candidates":
				tt.cands = append(tt.cands, d/1e3)
			case "liststore.acquire":
				tt.acquireHit = append(tt.acquireHit, d/1e3)
			case "liststore.build":
				tt.build = append(tt.build, d/1e6)
			case "engine.assemble":
				tt.assemble = append(tt.assemble, d/1e3)
			case "affinity.pairs":
				tt.pairs = append(tt.pairs, d/1e3)
			case "core.problem":
				tt.problem = append(tt.problem, d/1e3)
			case "remote.view_multi":
				tt.viewMulti = append(tt.viewMulti, d/1e6)
			}
			leaves += d
		}
		tt.coverage = append(tt.coverage, leaves/1e3/directUS)

		// Layers off the request's own path, timed beside it.
		items := w.CandidateItems(group, wr.NumItems)
		u := group[0]
		ow := ownerWorld(st, u)
		t.timed("cf.predict_batch", -1, func() { ow.Source().PredictBatch(u, items) })
		tt.predict = append(tt.predict, float64(t.spans[len(t.spans)-1].Dur())/1e6)
		if w.Remote() != nil {
			// The owning worker's view store answers the hop.
			for _, m := range group {
				i := t.begin("liststore.acquire", -1)
				ownerWorld(st, m).ListStore().Acquire(m)
				t.end(i)
				tt.acquireHit = append(tt.acquireHit, float64(t.spans[i].Dur())/1e3)
			}
		}
		if i < 2 {
			ps := private[ow]
			if ps == nil {
				ps = liststore.NewSharded(ow.Predictor(), ow.Ratings().PopularityRanked(), 0, prefDivisor, ow.Sharding())
				private[ow] = ps
			}
			t.timed("liststore.build", -1, func() { ps.Acquire(u) })
			tt.build = append(tt.build, float64(t.spans[len(t.spans)-1].Dur())/1e6)
		}
	}

	// One direct batch over the whole sample.
	reqs := make([]repro.Request, len(sample))
	for i, rq := range sample {
		opt, _ := options(rq.wire) // validated above
		reqs[i] = repro.Request{Group: groupOf(rq.wire.Group), Options: opt}
	}
	t.req = len(sample)
	bs := t.begin("repro.batch", -1)
	for _, r := range w.RecommendBatch(reqs) {
		if r.Err != nil {
			return nil, verdict, r.Err
		}
	}
	t.end(bs)
	batchMS := float64(t.spans[bs].Dur()) / 1e6 / float64(len(sample))

	if err := writeSpans(spanFile(wl, seed), t.spans); err != nil {
		return nil, verdict, err
	}
	printSelfTimes(t.spans)

	m := map[string]Metric{}
	empty := map[string]bool{}
	put := func(name string, v float64) {
		for _, lm := range layerMetrics {
			if lm.name == name {
				// A median over no samples: the layer did not run.
				if math.IsNaN(v) {
					v, empty[name] = 0, true
				}
				m[name] = Metric{Value: v, Unit: lm.unit}
				return
			}
		}
		panic("undeclared layer metric " + name)
	}
	b, a := win.Before, win.After
	// Paired per request: the same request's HTTP round trip (or
	// coalescer submit) minus its direct call.
	put("server.overhead_us", median(tt.httpOver))
	put("server.coalesce_wait_us", median(tt.coalesceOver))
	put("server.coalesce_batch_mean", ratio(float64(a.Coalescer.Requests-b.Coalescer.Requests), float64(a.Coalescer.Windows-b.Coalescer.Windows)))
	put("repro.recommend_us", median(tt.direct))
	put("repro.mux_shared_ratio", ratio(float64(a.Mux.Shared-b.Mux.Shared), float64(a.Mux.Runs-b.Mux.Runs)))
	put("repro.batch_ms_per_group", batchMS)
	put("dataset.candidates_us", median(tt.cands))
	put("dataset.pending_deltas", float64(a.Ingest.Store.Pending))
	put("liststore.acquire_hit_us", median(tt.acquireHit))
	put("liststore.build_ms", median(tt.build))
	hits := float64(a.Caches.ListStore.ViewHits - b.Caches.ListStore.ViewHits)
	builds := float64(a.Caches.ListStore.ViewBuilds - b.Caches.ListStore.ViewBuilds)
	put("liststore.view_hit_ratio", ratio(hits, hits+builds))
	put("cf.predict_batch_ms", median(tt.predict))
	ret := float64(a.Caches.Neighborhoods.Retained - b.Caches.Neighborhoods.Retained)
	inv := float64(a.Caches.Neighborhoods.Invalidated - b.Caches.Neighborhoods.Invalidated)
	put("cf.nbhd_retained_ratio", ratio(ret, ret+inv))
	rh := float64(a.Caches.RowCache.Hits - b.Caches.RowCache.Hits)
	rm := float64(a.Caches.RowCache.Misses - b.Caches.RowCache.Misses)
	put("cf.rowcache_hit_ratio", ratio(rh, rh+rm))
	put("engine.assemble_us", median(tt.assemble))
	put("affinity.pairs_us", median(tt.pairs))
	put("core.problem_us", median(tt.problem))
	put("core.run_ms.ap", median(tt.run["AP"]))
	put("core.run_ms.mo", median(tt.run["MO"]))
	put("core.run_ms.pd", median(tt.run["PD1"]))
	put("core.us_per_check", median(tt.perCheck))
	put("core.pct_sa", 100*ratio(float64(tt.sa), float64(tt.total)))
	put("core.checks_per_run", ratio(float64(tt.checks), float64(tt.runs)))
	put("remote.view_multi_ms", median(tt.viewMulti))
	// The router's own counters over the measured window; without
	// workers they stay at zero.
	reads := float64(res.Sent - len(res.Applied))
	rt, bt := a.Remote.Transport, b.Remote.Transport
	calls := float64(rt.TotalCalls()-bt.TotalCalls()) - float64(rt.CallsByOp["stats"]-bt.CallsByOp["stats"])
	put("remote.rpcs_per_req", ratio(calls, reads))
	put("remote.view_rpcs_per_req", ratio(float64(viewCalls(rt)-viewCalls(bt)), reads))
	vh := float64(a.Remote.ViewCache.Hits - b.Remote.ViewCache.Hits)
	vm := float64(a.Remote.ViewCache.Misses - b.Remote.ViewCache.Misses)
	put("remote.view_cache_hit_ratio", ratio(vh, vh+vm))
	put("remote.bytes_per_req", ratio(float64(win.WireBytes), reads))
	put("remote.retries", float64(rt.Retries-bt.Retries))
	put("persist.wal_bytes_per_rating", ratio(float64(win.WALBytes), float64(len(res.Applied))))
	late, _ := res.Late.Percentile(99)
	if res.Late.N() == 0 {
		late = 0 // closed-loop workloads send nothing late
	}
	put("loadgen.late_p99_ms", late)
	put("loadgen.sent", float64(res.Sent))
	put("loadgen.succeeded", float64(res.Tally.Attempted-res.Tally.Failed))
	put("loadgen.failed", float64(res.Tally.Failed))
	put("trace.coverage_ratio", median(tt.coverage))
	timedUS := timedPerGroupUS(res, tr)
	put("trace.overhead_ratio", median(tt.http)/timedUS)

	fmt.Printf("per-layer (traced pass: %d requests one at a time, %d spans -> %s):\n", len(sample), len(t.spans), spanFile(wl, seed))
	fmt.Printf("  traced http per group median %.1fus vs timed-run p50 %.1fus\n", median(tt.http), timedUS)
	for _, lm := range layerMetrics {
		note := "moves: " + lm.moves
		if empty[lm.name] {
			note = "(no samples: the layer did not run) " + note
		}
		fmt.Printf("  %-30s %14.4f %-6s %s\n", lm.name, m[lm.name].Value, lm.unit, note)
	}
	return m, verdict, nil
}

// timedPerGroupUS is the timed run's end-to-end p50 for one group, in
// microseconds: the open-loop /v1/recommend send-to-answer time, or in
// paper-batch a batch call's time over its entries.
func timedPerGroupUS(res *Results, tr *Traffic) float64 {
	if res.Service.N() > 0 {
		v, _ := res.Service.Percentile(50)
		return v * 1000
	}
	v, _ := res.BatchLatency.Percentile(50)
	return v * 1000 / float64(len(tr.Batches[0].Entries))
}

// viewCalls counts the view reads of a transport snapshot.
func viewCalls(t remote.TransportStats) uint64 {
	return t.CallsByOp["view"] + t.CallsByOp["view_multi"]
}

// printSelfTimes prints each span name's median duration and self time.
func printSelfTimes(spans []Span) {
	self := SelfTimes(spans)
	dur := map[string][]float64{}
	slf := map[string][]float64{}
	for i, s := range spans {
		dur[s.Name] = append(dur[s.Name], float64(s.Dur())/1e3)
		slf[s.Name] = append(slf[s.Name], float64(self[i])/1e3)
	}
	names := sortedKeys(dur)
	sort.SliceStable(names, func(i, j int) bool { return median(dur[names[i]]) > median(dur[names[j]]) })
	fmt.Println("span self times (median us):")
	for _, n := range names {
		fmt.Printf("  %-22s n=%-4d dur %12.1f  self %12.1f\n", n, len(dur[n]), median(dur[n]), median(slf[n]))
	}
}

func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
