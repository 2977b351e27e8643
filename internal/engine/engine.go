// Package engine is the assembly layer of the recommendation pipeline:
// it turns (group, candidate items) into the inputs the GRECA core
// consumes — dense absolute-preference rows, and, when the sorted-list
// store can serve the group, pre-sorted view/patch sets that let the
// core merge instead of re-sort. Rows fill concurrently over a worker
// pool and recycle through a sync.Pool. The assembler sits between the
// preference layer (the active cf.Source predictor, beside the
// liststore.Store) and the core problem builders; see DESIGN.md.
package engine

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/cf"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/liststore"
	"repro/internal/shard"
)

// Assembler fills preference matrices from a cf.Source. It is
// immutable after New (and AttachListStore / AttachShards) and safe
// for concurrent use; a single Assembler is meant to be shared by all
// traffic against one World.
type Assembler struct {
	src     cf.Source
	into    cf.BatchInto // src's in-place path, when it has one
	workers int
	rows    sync.Pool // *[]float64, capacity grows to the largest row seen
	// lists is the optional sorted-list store; nil disables the
	// view-served path.
	lists *liststore.Store
	// sm is the world's user-range partitioning. The assembler routes
	// each member's view acquisition through it (mixed-shard groups
	// resolve each member against its own shard's sub-store, so
	// assembly never takes a cross-shard lock) and interleaves the
	// fill order across shards so concurrent workers start on distinct
	// shards instead of convoying on one sub-store's mutex.
	sm shard.Map
	// remote, when attached, replaces the per-user data-plane reads
	// (view scores, batch predictions) with fetches from the shard
	// workers that own the users' hot state; the local lists store then
	// only supplies the global pool mapping. Workers are full replicas
	// built from the identical configuration, so every fetched value is
	// bit-identical to what the local path would compute.
	remote RemotePlane
}

// RemotePlane is the multi-process data plane the assembler hands
// whole-group reads to when shards live in worker processes. The
// assembler passes the full member list; the plane buckets members by
// owning worker and pays one RPC per worker per call (serving cached
// views without any RPC at all), so a g-member group costs O(workers)
// round trips instead of O(members). Implementations must be safe for
// concurrent use and return the transport's typed sentinels on
// failure (the assembler propagates them verbatim).
type RemotePlane interface {
	// ViewsMulti returns each member's materialized view in member
	// order (dense pool-order scores plus the canonical sorted side,
	// score length = pool size).
	ViewsMulti(users []dataset.UserID) ([]*liststore.View, error)
	// PredictBatchMulti returns each member's raw (1..5 scale)
	// predictions for one shared item list, in member order.
	PredictBatchMulti(users []dataset.UserID, items []dataset.ItemID) ([][]float64, error)
}

// New builds an Assembler over src with the given per-call worker
// bound (GOMAXPROCS if workers <= 0). workers = 1 forces sequential
// assembly — the baseline the parallel benchmarks compare against.
func New(src cf.Source, workers int) *Assembler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	a := &Assembler{src: src, workers: workers, sm: shard.Single}
	a.into, _ = src.(cf.BatchInto)
	a.rows.New = func() any { s := make([]float64, 0); return &s }
	return a
}

// AttachListStore wires the sorted-list store into the assembler,
// enabling AprefViews. Call before the assembler starts serving
// traffic (it is not synchronized).
func (a *Assembler) AttachListStore(lists *liststore.Store) { a.lists = lists }

// AttachShards installs the world's shard map (nil reverts to the
// 1-way layout). Call before the assembler starts serving traffic.
func (a *Assembler) AttachShards(m shard.Map) { a.sm = shard.Normalize(m) }

// AttachRemote routes the per-user data-plane reads through remote
// shard workers (nil reverts to in-process reads). Call before the
// assembler starts serving traffic.
func (a *Assembler) AttachRemote(rp RemotePlane) { a.remote = rp }

// ListStore returns the attached sorted-list store, or nil.
func (a *Assembler) ListStore() *liststore.Store { return a.lists }

// Workers returns the per-call worker bound.
func (a *Assembler) Workers() int { return a.workers }

// Source returns the preference source the assembler reads.
func (a *Assembler) Source() cf.Source { return a.src }

// AprefRows returns the g×m matrix of predicted ratings divided by
// divisor (the engine passes 5 to map the 1..5 scale onto [0,1]).
// Rows are filled concurrently, one member per task, over at most
// min(workers, g) goroutines; each fill resolves that member's
// neighborhood exactly once via the source's batch path.
//
// Row buffers come from an internal pool. Callers that drop the matrix
// after a bounded lifetime (run the problem, copy the result out)
// should hand it back via Release; callers that expose the matrix
// beyond their control must simply not Release it, and the pool
// re-allocates.
//
// The error is always nil for in-process reads; with a remote plane
// attached, the whole group's predictions come back from one batched
// scatter (one RPC per owning worker), and a worker that cannot serve
// fails the whole assembly with the transport's typed error before
// any row is filled.
func (a *Assembler) AprefRows(group []dataset.UserID, items []dataset.ItemID, divisor float64) ([][]float64, error) {
	g := len(group)
	out := make([][]float64, g)
	if g == 0 {
		return out, nil
	}
	var fetched [][]float64
	if a.remote != nil {
		var err error
		fetched, err = a.remote.PredictBatchMulti(group, items)
		if err != nil {
			return nil, err
		}
	}
	a.forEachMember(g, func(ui int) {
		row := a.getRow(len(items))
		switch {
		case fetched != nil:
			copy(row, fetched[ui])
		case a.into != nil:
			a.into.PredictBatchInto(group[ui], items, row)
		default:
			copy(row, a.src.PredictBatch(group[ui], items))
		}
		for i := range row {
			row[i] /= divisor
		}
		out[ui] = row
	})
	return out, nil
}

// forEachMember runs fill(ui) for ui in [0,g) over at most
// min(workers, g) goroutines.
func (a *Assembler) forEachMember(g int, fill func(int)) {
	a.forEachMemberOrdered(identityOrder(g), fill)
}

// forEachMemberOrdered runs fill(ui) for every ui in order, handing
// indexes to at most min(workers, len(order)) goroutines in the given
// sequence. Each fill writes only its own member's slot, so the order
// never changes the assembled output — only which locks concurrent
// workers contend on first.
func (a *Assembler) forEachMemberOrdered(order []int, fill func(int)) {
	g := len(order)
	w := a.workers
	if w > g {
		w = g
	}
	if w <= 1 {
		for _, ui := range order {
			fill(ui)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for n := 0; n < w; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ui := range next {
				fill(ui)
			}
		}()
	}
	for _, ui := range order {
		next <- ui
	}
	close(next)
	wg.Wait()
}

func identityOrder(g int) []int {
	order := make([]int, g)
	for i := range order {
		order[i] = i
	}
	return order
}

// shardInterleavedOrder buckets the group's member indexes by shard
// and deals them out round-robin, so the first w indexes handed to w
// concurrent workers land on w distinct sub-stores whenever the group
// spans that many shards. For a 1-way map (or a single-shard group)
// the order is the identity.
func (a *Assembler) shardInterleavedOrder(group []dataset.UserID) []int {
	if a.sm.N() == 1 {
		return identityOrder(len(group))
	}
	buckets := make(map[int][]int)
	var shards []int
	for ui, u := range group {
		s := a.sm.Of(int64(u))
		if _, ok := buckets[s]; !ok {
			shards = append(shards, s)
		}
		buckets[s] = append(buckets[s], ui)
	}
	order := make([]int, 0, len(group))
	for len(order) < len(group) {
		for _, s := range shards {
			if b := buckets[s]; len(b) > 0 {
				order = append(order, b[0])
				buckets[s] = b[1:]
			}
		}
	}
	return order
}

// ViewAssembly is the product of a store-served assembly: the dense
// rows core.Input requires (pooled; hand back via Release) plus the
// view set NewProblemFromViews merges. Rows and views carry the same
// values, so a problem built from them is bit-identical to the dense
// path.
type ViewAssembly struct {
	Rows  [][]float64
	Views core.ViewSet
}

// AprefViews assembles the group's preference inputs through the
// sorted-list store: each member's dense row is copied out of the
// member's materialized view through the pool→candidate mapping, and
// only the uncovered remainder of the candidate slice (the patch set)
// goes through the predictor — no per-request re-scoring, no
// re-sorting. ok is false when the store is absent, the divisor
// disagrees with the store's, or the mapping covers less than half the
// slice (a candidate set foreign to the popularity pool assembles
// faster densely); callers then fall back to AprefRows + NewProblem.
//
// Views resolve through the world's shard map: each member's Acquire
// routes to its own shard's sub-store, so a mixed-shard group
// assembles without any cross-shard lock, and the fill order is
// interleaved across shards so concurrent workers spread over the
// sub-stores instead of queueing on one.
// With a remote plane attached, the whole group's views and patch
// predictions come back from two batched scatters — one ViewsMulti
// and (when the patch set is non-empty) one PredictBatchMulti, each
// one RPC per owning worker — before the parallel fill begins (the
// local store still supplies the global pool mapping; fetched views
// carry the same canonical sorted side a snapshot restore derives —
// bit-identical to the in-process view). A worker that cannot serve
// fails the assembly with the transport's typed error.
func (a *Assembler) AprefViews(group []dataset.UserID, items []dataset.ItemID, divisor float64) (ViewAssembly, bool, error) {
	if a.lists == nil || a.lists.Divisor() != divisor || len(group) == 0 || len(items) == 0 {
		return ViewAssembly{}, false, nil
	}
	mapping := a.lists.MapCandidates(items)
	if mapping.Matched*2 < len(items) {
		return ViewAssembly{}, false, nil
	}
	patch := items[mapping.Matched:]
	g := len(group)
	va := ViewAssembly{
		Rows: make([][]float64, g),
		Views: core.ViewSet{
			LocalOf: mapping.LocalOf,
			Members: make([]core.MemberView, g),
		},
	}
	var (
		remoteViews []*liststore.View
		remotePatch [][]float64
	)
	if a.remote != nil {
		var err error
		remoteViews, err = a.remote.ViewsMulti(group)
		if err != nil {
			return ViewAssembly{}, false, err
		}
		for ui, v := range remoteViews {
			if v == nil || len(v.Scores) != len(mapping.LocalOf) {
				n := -1
				if v != nil {
					n = len(v.Scores)
				}
				return ViewAssembly{}, false, fmt.Errorf("engine: remote view for user %d carries %d scores, pool has %d",
					group[ui], n, len(mapping.LocalOf))
			}
		}
		if len(patch) > 0 {
			remotePatch, err = a.remote.PredictBatchMulti(group, patch)
			if err != nil {
				return ViewAssembly{}, false, err
			}
		}
	}
	a.forEachMemberOrdered(a.shardInterleavedOrder(group), func(ui int) {
		var v *liststore.View
		if remoteViews != nil {
			v = remoteViews[ui]
		} else {
			v = a.lists.Acquire(group[ui])
		}
		row := a.getRow(len(items))
		for p, l := range mapping.LocalOf {
			if l >= 0 {
				row[l] = v.Scores[p]
			}
		}
		mv := core.MemberView{View: v.Sorted}
		if len(patch) > 0 {
			var pv []float64
			if remotePatch != nil {
				pv = remotePatch[ui]
			} else {
				pv = a.src.PredictBatch(group[ui], patch)
			}
			pe := make([]core.Entry, len(patch))
			for i := range patch {
				val := pv[i] / divisor
				row[mapping.Matched+i] = val
				pe[i] = core.Entry{Key: mapping.Matched + i, Value: val}
			}
			core.SortCanonical(pe)
			mv.Patch = pe
		}
		va.Rows[ui] = row
		va.Views.Members[ui] = mv
	})
	return va, true, nil
}

// Release returns AprefRows buffers to the pool. The caller must hold
// the only remaining references: nothing may read the rows after this.
func (a *Assembler) Release(rows [][]float64) {
	for i, row := range rows {
		if row == nil {
			continue
		}
		r := row[:0]
		a.rows.Put(&r)
		rows[i] = nil
	}
}

func (a *Assembler) getRow(n int) []float64 {
	p := a.rows.Get().(*[]float64)
	if cap(*p) < n {
		return make([]float64, n)
	}
	// No zeroing: Source predictions are total, so every element is
	// overwritten before the row is read.
	return (*p)[:n]
}

// putRow hands a single row back to the pool (failed fills that never
// published their row into the output matrix).
func (a *Assembler) putRow(row []float64) {
	r := row[:0]
	a.rows.Put(&r)
}
