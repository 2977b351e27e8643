package repro

import (
	"fmt"
	"sort"

	"repro/internal/cf"
	"repro/internal/dataset"
	"repro/internal/liststore"
	"repro/internal/remote"
)

// This file is the world's side of the distributed deployment: the
// router attaches a remote.ShardSet so per-user data-plane reads
// scatter to worker processes, and a worker wraps its world in a
// ShardBackend so remote.Server can serve them. Both processes build
// the same deterministic world from the same configuration — the
// config fingerprint handshake enforces it — so moving shards out of
// process never changes a served byte; see DESIGN.md "Distributed
// world".

// ConfigFingerprint identifies the world-shaping configuration — the
// same FNV-64a digest the persistence layer gates snapshots and WALs
// with, reused by the distributed hello handshake so a router only
// talks to workers built from its exact world.
func (w *World) ConfigFingerprint() uint64 { return configFingerprint(w.cfg) }

// AttachRemote switches the world's per-user data plane to the worker
// fleet behind set: view fetches and batch predictions route to each
// user's owning worker, rating ingest fans out to every replica, and
// /v1/stats reports the workers' cache counters. The topology's shard
// count must equal the world's, and every worker must be reachable
// and fingerprint-identical (the handshake runs eagerly here, so a
// misconfigured fleet fails at boot, not on the first request).
//
// Call before serving traffic; attaching is not synchronized against
// in-flight requests.
func (w *World) AttachRemote(set *remote.ShardSet) error {
	if set.Shards() != w.sm.N() {
		return fmt.Errorf("repro: topology has %d shards, world has %d", set.Shards(), w.sm.N())
	}
	if err := set.Handshake(w.ConfigFingerprint(), w.sm.N()); err != nil {
		return fmt.Errorf("repro: attaching remote shards: %w", err)
	}
	// A view is the pool-order score vector, so its length is exactly
	// the candidate pool's — pin the transport's claimed-total bound to
	// it, rejecting any larger claim before allocation.
	set.LimitViewScores(len(w.ratings.PopularityRanked()))
	w.remote = set
	// Router view store (opt-in via Config.RemoteViewCache): fetched
	// views install into a sorted-list store over the same pool, swept
	// by addRating like the local one. It never builds — every view
	// arrives through Install — so its source is never called.
	pool := w.ratings.PopularityRanked()
	if w.cfg.RemoteViewCache > 0 {
		w.remoteViews = liststore.NewSharded(w.source, pool, w.cfg.RemoteViewCache, prefDivisor, w.sm)
	}
	w.asm.AttachRemote(&remotePlane{set: set, views: w.remoteViews, pool: pool})
	return nil
}

// Remote returns the attached worker fleet, or nil in-process.
func (w *World) Remote() *remote.ShardSet { return w.remote }

// remotePlane adapts the shard-set client to the assembler's batched
// data-plane seam, with the router's view store in front of the wire:
// resident members are served locally, the misses fetch in one
// worker-batched scatter, and fetched views install back into the
// store under the sweep fence read before the fetch.
type remotePlane struct {
	set   *remote.ShardSet
	views *liststore.Store // nil when Config.RemoteViewCache disabled it
	pool  []dataset.ItemID // the popularity pool, for fallback-position reconstruction
}

func (p *remotePlane) ViewsMulti(group []dataset.UserID) ([]*liststore.View, error) {
	out := make([]*liststore.View, len(group))
	var (
		missUsers []dataset.UserID
		missIdx   []int
	)
	for i, u := range group {
		if p.views != nil {
			if out[i] = p.views.Lookup(u); out[i] != nil {
				continue
			}
		}
		missUsers = append(missUsers, u)
		missIdx = append(missIdx, i)
	}
	if len(missUsers) == 0 {
		return out, nil
	}
	// Fence token first, fetch second: if a sweep starts anywhere in
	// between, the install is refused and the fetched view serves only
	// this request — never a post-ingest one.
	var token uint64
	if p.views != nil {
		token = p.views.SweepToken()
	}
	res, err := p.set.ViewScoresMulti(missUsers)
	if err != nil {
		return nil, err
	}
	for j, r := range res {
		v := liststore.ViewFromScores(r.Scores)
		out[missIdx[j]] = v
		if p.views != nil {
			deps, depsKnown := p.reconstructDeps(r)
			p.views.Install(missUsers[j], v, deps, depsKnown, token)
		}
	}
	return out, nil
}

// reconstructDeps rebuilds the worker view's dependency metadata from
// the wire form: fallback positions are candidate-pool indexes, and
// the router's pool is bit-identical to the worker's (the fingerprint
// handshake guarantees it), so pool[pos] recovers the item IDs the
// scoped sweep matches against. A position outside the pool marks the
// metadata unusable, never a panic.
func (p *remotePlane) reconstructDeps(r remote.ViewResult) (cf.RowDeps, bool) {
	if !r.DepsKnown {
		return cf.RowDeps{}, false
	}
	deps := cf.RowDeps{UsedGlobal: r.UsedGlobal}
	if n := len(r.FallbackPos); n > 0 {
		items := make([]dataset.ItemID, n)
		for k, pos := range r.FallbackPos {
			if pos < 0 || int(pos) >= len(p.pool) {
				return cf.RowDeps{}, false
			}
			items[k] = p.pool[pos]
		}
		deps.FallbackItems = items
		deps.FallbackPos = append([]int32(nil), r.FallbackPos...)
	}
	return deps, true
}

func (p *remotePlane) PredictBatchMulti(group []dataset.UserID, items []dataset.ItemID) ([][]float64, error) {
	return p.set.PredictBatchMulti(group, items)
}

// ShardBackend is the worker process's side of the data plane: a full
// replica world serving the per-shard operations for the shards this
// worker owns, behind the remote.Backend interface cmd/greca-shard
// plugs into remote.NewServer.
type ShardBackend struct {
	w     *World
	owned []int
}

// NewShardBackend wraps w as the backend for the given owned shards.
// Shard indexes must be valid for the world and free of duplicates.
func NewShardBackend(w *World, owned []int) (*ShardBackend, error) {
	if len(owned) == 0 {
		return nil, fmt.Errorf("repro: shard backend owns no shards")
	}
	seen := make(map[int]bool, len(owned))
	for _, sh := range owned {
		if sh < 0 || sh >= w.Shards() {
			return nil, fmt.Errorf("repro: owned shard %d outside [0,%d)", sh, w.Shards())
		}
		if seen[sh] {
			return nil, fmt.Errorf("repro: shard %d owned twice", sh)
		}
		seen[sh] = true
	}
	return &ShardBackend{w: w, owned: append([]int(nil), owned...)}, nil
}

// Fingerprint implements remote.Backend.
func (b *ShardBackend) Fingerprint() uint64 { return b.w.ConfigFingerprint() }

// Shards implements remote.Backend.
func (b *ShardBackend) Shards() int { return b.w.Shards() }

// Owned implements remote.Backend.
func (b *ShardBackend) Owned() []int { return append([]int(nil), b.owned...) }

// ViewScores implements remote.Backend: u's pool-order normalized
// preference scores, served from the sorted-list store when enabled
// (materializing and caching the view exactly like local traffic
// would) and computed directly from the predictor otherwise.
func (b *ShardBackend) ViewScores(u dataset.UserID) ([]float64, error) {
	if b.w.lists != nil {
		return b.w.lists.Acquire(u).Scores, nil
	}
	pool := b.w.ratings.PopularityRanked()
	raw := b.w.source.PredictBatch(u, pool)
	scores := make([]float64, len(raw))
	for i, v := range raw {
		scores[i] = v / prefDivisor
	}
	return scores, nil
}

// ViewScoresDeps implements remote.Backend: u's view scores plus the
// dependency metadata the build recorded — which pool positions fell
// to the mean-fallback ladder — so the router's view store can apply
// the same scoped-invalidation verdicts the worker's own store would.
// depsKnown is false when the metadata is unavailable (store disabled
// with a non-deps source, a row from an untracked neighborhood, or a
// snapshot-restored view); such views cache fine but drop on the first
// ingest sweep.
func (b *ShardBackend) ViewScoresDeps(u dataset.UserID) ([]float64, cf.RowDeps, bool, error) {
	if b.w.lists != nil {
		v, deps, known := b.w.lists.AcquireWithDeps(u)
		return v.Scores, deps, known, nil
	}
	pool := b.w.ratings.PopularityRanked()
	var (
		raw  []float64
		deps cf.RowDeps
	)
	ds, known := b.w.source.(cf.DepsSource)
	if known {
		raw, deps = ds.PredictBatchDeps(u, pool)
		known = !deps.Untracked
	} else {
		raw = b.w.source.PredictBatch(u, pool)
	}
	scores := make([]float64, len(raw))
	for i, v := range raw {
		scores[i] = v / prefDivisor
	}
	return scores, deps, known, nil
}

// PredictBatch implements remote.Backend: raw (1..5 scale)
// predictions from the worker's active predictor, exactly the values
// the router's own source would produce.
func (b *ShardBackend) PredictBatch(u dataset.UserID, items []dataset.ItemID) ([]float64, error) {
	return b.w.source.PredictBatch(u, items), nil
}

// Apply implements remote.Backend: ingest one fanned-out rating into
// the replica — the full AddRating path, scoped invalidation included
// — and ack with the replica's delta counters plus the invalidation
// outcome: whether the replica swept scoped, and if so which of its
// cached users went stale. The router merges the relayed verdicts
// into its own to sweep its store of fetched views — those views were
// built here, against this replica's caches, so this replica's stale
// set (not the router's idle one) is the authoritative reach of the
// ingest. Rejections unwrap to the dataset sentinels, which the
// transport relays by code.
func (b *ShardBackend) Apply(r dataset.Rating) (remote.ApplyAck, error) {
	out, err := b.w.addRating(r)
	if err != nil {
		return remote.ApplyAck{}, err
	}
	ds := b.w.IngestStats()
	ack := remote.ApplyAck{
		Pending: ds.Pending,
		Applied: ds.Applied,
		Folds:   ds.Folds,
		Folded:  ds.Folded,
		Scoped:  out.scoped,
	}
	if out.scoped && len(out.stale) > 0 {
		ack.Stale = make([]dataset.UserID, 0, len(out.stale))
		for u := range out.stale {
			ack.Stale = append(ack.Stale, u)
		}
		sort.Slice(ack.Stale, func(i, j int) bool { return ack.Stale[i] < ack.Stale[j] })
	}
	return ack, nil
}

// InvalidateUser implements remote.Backend.
func (b *ShardBackend) InvalidateUser(u dataset.UserID) bool {
	return b.w.InvalidateUserViews(u)
}

// ShardStats implements remote.Backend: the owned shards' slices of
// the replica's cache counters, in owned order.
func (b *ShardBackend) ShardStats() []remote.ShardStats {
	per := b.w.CacheStats().PerShard
	out := make([]remote.ShardStats, 0, len(b.owned))
	for _, sh := range b.owned {
		ps := per[sh]
		out = append(out, remote.ShardStats{
			Shard:         sh,
			ListStore:     ps.ListStore,
			Neighborhoods: ps.Neighborhoods,
		})
	}
	return out
}
