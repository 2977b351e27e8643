// Package liststore is the precomputed sorted-list store of the
// recommendation engine: per user, it materializes a descending-sorted
// preference view over the popularity candidate pool — the lists
// GRECA's instance-optimal scan consumes — so problem assembly merges
// and patches instead of re-sorting every list on every request. The
// classic sorted-access precomputation trade-off: pay one batch
// prediction and one sort per user at ingest, amortize them across the
// sweep traffic.
//
// A Store is the engine's one per-user view cache: the engine asks it
// for (view, pool→candidate mapping) pairs, falls back to dense
// assembly when the store is disabled, and routes only the uncovered
// remainder of a candidate slice (the patch set) through the predictor.
// Views are immutable once built; rating ingest must Invalidate the
// affected users, which drops their views for rebuild on next use.
// Views built elsewhere — a distributed router's views fetched from
// the shard workers — enter through Lookup and Install instead of
// Acquire, fenced against ingest sweeps by a sweep counter. See
// DESIGN.md's "Sorted-list store" section.
//
// The Store is a thin fan-out over per-shard sub-stores: a shard.Map
// routes each user to the part holding its view slot, and every part
// keeps its own mutex, CLOCK ring, capacity budget, and counters.
// Acquiring or invalidating a view therefore locks exactly one shard —
// invalidation traffic on one shard never blocks view serving on
// another. Candidate mappings are pool-indexed (user-independent), so
// the mapping memo stays at the fan-out level, shared by all shards.
package liststore

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cf"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/shard"
)

// DefaultMaxUsers bounds materialized per-user views. A view over a
// MovieLens-scale pool (~4000 items) is ~96KB (dense scores + sorted
// entries), so 1024 users cap the store near 100MB worst-case.
const DefaultMaxUsers = 1024

// mapCacheCap bounds the memoized pool→candidate mappings. Sweep
// traffic reuses a handful of candidate slices, so a small bound
// suffices; overflow drops the whole map (mappings are cheap to
// recompute).
const mapCacheCap = 128

// View is one user's materialized preference state over the store
// pool: the dense normalized scores in pool order (problem rows are
// filled from it) and the canonical descending-sorted view (problem
// lists are merged from it). Both are immutable and shared; callers
// must never mutate them.
type View struct {
	// Scores[p] is the normalized score of pool position p.
	Scores []float64
	// Sorted holds the same scores in canonical order (descending
	// value, ascending pool position on ties).
	Sorted *core.SortedView
}

// Mapping is a memoized pool→candidate-slice mapping. LocalOf[p] is
// the index of pool position p within the candidate slice, or -1.
// Matched counts the covered prefix of the slice: items[:Matched] are
// served by the view, items[Matched:] are the patch set. Shared and
// immutable.
type Mapping struct {
	LocalOf []int32
	Matched int
}

// Stats is the store's observability surface for /stats: view traffic
// (hits vs builds, rebuilds after invalidation), lifecycle counters,
// patch volume, and the mapping cache. The per-user counters aggregate
// across shards (they are exactly the sum of StatsByShard); the
// mapping and patch counters are store-global, since mappings are a
// pool property shared by every shard.
type Stats struct {
	// ViewHits counts Acquire calls answered by a materialized view;
	// ViewBuilds counts materializations (first use or after eviction);
	// Rebuilds is the subset of builds that followed an Invalidate.
	ViewHits   uint64 `json:"view_hits"`
	ViewBuilds uint64 `json:"view_builds"`
	Rebuilds   uint64 `json:"rebuilds"`
	// Invalidations counts Invalidate calls that dropped a view;
	// Evictions counts views dropped by capacity pressure.
	Invalidations uint64 `json:"invalidations"`
	Evictions     uint64 `json:"evictions"`
	// Retained counts views a scoped invalidation proved independent of
	// the ingested rating and kept warm; Patched is the subset of
	// retained views that had the new item mean spliced into their
	// fallback entries in place of a rebuild. A drop-everything
	// invalidation retains and patches nothing, so Retained vs
	// Invalidations measures how much view heat ingest traffic
	// preserves.
	Retained uint64 `json:"retained"`
	Patched  uint64 `json:"patched"`
	// WarmLoads counts views installed from a snapshot restore instead
	// of built — the warm-restart observability hook.
	WarmLoads uint64 `json:"warm_loads"`
	// LookupMisses counts Lookup calls that found no settled view;
	// Installs counts views accepted by Install and Rejected the ones
	// its sweep fence refused. All three stay zero on a store that only
	// builds its views.
	LookupMisses uint64 `json:"lookup_misses"`
	Installs     uint64 `json:"installs"`
	Rejected     uint64 `json:"rejected"`
	// PatchItems is the total number of candidate items served through
	// patch sets instead of views (uncovered remainder of a slice).
	PatchItems uint64 `json:"patch_items"`
	// MapHits / MapMisses count the memoized pool→candidate mappings.
	MapHits   uint64 `json:"map_hits"`
	MapMisses uint64 `json:"map_misses"`
	// Size is the number of materialized views; PoolSize the length of
	// the base pool the views cover.
	Size     int `json:"size"`
	PoolSize int `json:"pool_size"`
}

// ShardStats is one shard part's slice of the per-user counters — the
// /stats per-shard breakdown. The fields sum exactly to the matching
// aggregate Stats fields. MaxUsers is the part's CLOCK budget (the
// store budget split across shards).
type ShardStats struct {
	ViewHits      uint64 `json:"view_hits"`
	ViewBuilds    uint64 `json:"view_builds"`
	Rebuilds      uint64 `json:"rebuilds"`
	Invalidations uint64 `json:"invalidations"`
	Evictions     uint64 `json:"evictions"`
	Retained      uint64 `json:"retained"`
	Patched       uint64 `json:"patched"`
	WarmLoads     uint64 `json:"warm_loads"`
	Size          int    `json:"size"`
	MaxUsers      int    `json:"max_users"`
}

// builtView bundles a settled view with the dependency metadata its
// build recorded: which pool positions fell to the mean-fallback
// ladder. depsKnown is false when the source could not report deps (a
// non-DepsSource, or a snapshot restore — snapshots persist scores
// only); such views are conservatively dropped by scoped sweeps.
type builtView struct {
	view      *View
	deps      cf.RowDeps
	depsKnown bool
}

// userEntry tracks one user's view slot: a once so concurrent first
// acquirers build a view exactly once, and a CLOCK reference bit. The
// built pointer is atomic because scoped invalidation reads (and
// patches) it under the part lock while the build closure publishes it
// without — an entry with a nil built is still mid-build.
type userEntry struct {
	once  sync.Once
	built atomic.Pointer[builtView]
	ref   atomic.Bool
}

// viewOf returns the entry's settled view (nil while mid-build).
func (e *userEntry) viewOf() *View {
	if b := e.built.Load(); b != nil {
		return b.view
	}
	return nil
}

// storePart is one shard's sub-store: the view slots of exactly the
// users hashing to this shard, under their own mutex, CLOCK ring, and
// capacity budget.
type storePart struct {
	maxUsers int

	mu      sync.Mutex
	entries map[dataset.UserID]*userEntry
	ring    []dataset.UserID // CLOCK ring over resident users
	hand    int
	// invalidated marks users whose next build is a rebuild.
	invalidated map[dataset.UserID]bool

	viewHits      atomic.Uint64
	viewBuilds    atomic.Uint64
	rebuilds      atomic.Uint64
	invalidations atomic.Uint64
	evictions     atomic.Uint64
	retained      atomic.Uint64
	patched       atomic.Uint64
	warmLoads     atomic.Uint64
}

func newStorePart(maxUsers int) *storePart {
	return &storePart{
		maxUsers:    maxUsers,
		entries:     make(map[dataset.UserID]*userEntry),
		invalidated: make(map[dataset.UserID]bool),
	}
}

// Store materializes and serves per-user sorted preference views over a
// fixed base pool, fanned out over per-shard sub-stores. Views build
// lazily on first Acquire, are bounded per shard by a CLOCK
// (second-chance) policy over that shard's users, and drop on
// Invalidate. Safe for concurrent use.
type Store struct {
	src     cf.Source
	deps    cf.DepsSource // src's deps-reporting path, when it has one
	pool    []dataset.ItemID
	divisor float64
	sm      shard.Map
	parts   []*storePart

	// mapMu guards the pool→candidate mapping memo, which is shared by
	// all shards (mappings do not depend on users).
	mapMu sync.Mutex
	maps  map[mapKey]*Mapping

	// sweeps counts InvalidateScoped and InvalidateAll calls: the fence
	// token Install checks against the one read before a fetch.
	sweeps atomic.Uint64

	patchItems   atomic.Uint64
	mapHits      atomic.Uint64
	mapMisses    atomic.Uint64
	lookupMisses atomic.Uint64
	installs     atomic.Uint64
	rejected     atomic.Uint64
}

type mapKey struct {
	fp uint64
	n  int
}

// New builds an unsharded store over src and pool; see NewSharded.
func New(src cf.Source, pool []dataset.ItemID, maxUsers int, divisor float64) *Store {
	return NewSharded(src, pool, maxUsers, divisor, nil)
}

// NewSharded builds a store over src and pool (the popularity-ranked
// candidate base; the slice is retained and must not change),
// partitioned into one sub-store per shard of m (nil = one part, the
// unsharded layout). maxUsers bounds materialized views across the
// whole store (DefaultMaxUsers if <= 0) and is split across the parts,
// each getting at least one slot; with m = Single the one part keeps
// the whole budget, so the degenerate case matches the historical
// layout exactly. divisor is the normalization the engine applies to
// predictions (5 maps the 1..5 rating scale onto [0,1]); stored scores
// are pre-divided so views feed problems directly. Returns nil for an
// empty pool — a store over nothing serves nothing.
func NewSharded(src cf.Source, pool []dataset.ItemID, maxUsers int, divisor float64, m shard.Map) *Store {
	if len(pool) == 0 || src == nil || divisor == 0 {
		return nil
	}
	if maxUsers <= 0 {
		maxUsers = DefaultMaxUsers
	}
	sm := shard.Normalize(m)
	s := &Store{
		src:     src,
		pool:    pool,
		divisor: divisor,
		sm:      sm,
		maps:    make(map[mapKey]*Mapping),
	}
	s.deps, _ = src.(cf.DepsSource)
	budgets := shard.Split(sm, maxUsers)
	s.parts = make([]*storePart, sm.N())
	for i := range s.parts {
		s.parts[i] = newStorePart(budgets[i])
	}
	return s
}

// Pool returns the base pool the views cover (shared, read-only).
func (s *Store) Pool() []dataset.ItemID { return s.pool }

// Divisor returns the normalization the stored scores carry.
func (s *Store) Divisor() float64 { return s.divisor }

// Sharding returns the shard map routing users onto sub-stores.
func (s *Store) Sharding() shard.Map { return s.sm }

// part returns the sub-store holding u's view slot.
func (s *Store) part(u dataset.UserID) *storePart {
	return s.parts[s.sm.Of(int64(u))]
}

// Acquire returns u's view, materializing it on first use. The
// returned view is immutable and remains valid even if the store
// evicts or invalidates u afterwards (callers keep a reference; the
// store just forgets it). Only u's shard part is locked, so acquirers
// on different shards never contend.
//
// Every path funnels through the entry's once with the same build
// closure: whichever acquirer gets there first builds, everyone else
// blocks until the view exists. (A hit-path no-op Do would race the
// creator — if it won, the view would stay nil forever.)
func (s *Store) Acquire(u dataset.UserID) *View {
	p := s.part(u)
	p.mu.Lock()
	e, ok := p.entries[u]
	if ok {
		e.ref.Store(true)
		p.mu.Unlock()
		e.once.Do(func() { e.built.Store(s.build(u)) })
		p.viewHits.Add(1)
		return e.viewOf()
	}
	e = &userEntry{}
	e.ref.Store(true) // enter referenced: a just-built view is never the next sweep's first victim
	p.evictLocked()
	p.entries[u] = e
	p.ring = append(p.ring, u)
	rebuilt := p.invalidated[u]
	delete(p.invalidated, u)
	p.mu.Unlock()

	e.once.Do(func() { e.built.Store(s.build(u)) })
	p.viewBuilds.Add(1)
	if rebuilt {
		p.rebuilds.Add(1)
	}
	return e.viewOf()
}

// AcquireWithDeps is Acquire plus the view's recorded build
// dependencies: the mean-fallback metadata scoped invalidation reads.
// depsKnown is false when the source could not report them (a
// non-DepsSource, or a snapshot-restored view) — the remote data plane
// relays this over the wire so the router's store knows whether an
// installed view can be patched through an ingest or must be dropped.
func (s *Store) AcquireWithDeps(u dataset.UserID) (*View, cf.RowDeps, bool) {
	v := s.Acquire(u)
	if v == nil {
		return nil, cf.RowDeps{}, false
	}
	p := s.part(u)
	p.mu.Lock()
	e, ok := p.entries[u]
	p.mu.Unlock()
	if ok {
		if b := e.built.Load(); b != nil && b.view == v {
			return v, b.deps, b.depsKnown
		}
	}
	// The entry was evicted, invalidated, or replaced between the
	// acquire and the lookup: the view itself is still valid (views are
	// immutable), but its dependency metadata is gone — report it
	// unknown so the caller treats the view as unpatchable.
	return v, cf.RowDeps{}, false
}

// Lookup returns u's settled view without building one, or nil — the
// read side of a store whose views arrive through Install. A hit
// counts as a view hit and grants the CLOCK second chance; a miss
// counts in LookupMisses.
func (s *Store) Lookup(u dataset.UserID) *View {
	p := s.part(u)
	p.mu.Lock()
	var v *View
	if e, ok := p.entries[u]; ok {
		if v = e.viewOf(); v != nil {
			e.ref.Store(true)
		}
	}
	p.mu.Unlock()
	if v == nil {
		s.lookupMisses.Add(1)
		return nil
	}
	p.viewHits.Add(1)
	return v
}

// SweepToken returns the fence token for Install: read it before
// fetching a view from elsewhere, hand it to Install after.
func (s *Store) SweepToken() uint64 { return s.sweeps.Load() }

// Install caches a view built outside the store (fetched from the
// worker owning u) with the dependency metadata its build reported.
// token is SweepToken read before the fetch began. Every sweep bumps
// the counter before it takes any part lock, and Install re-reads it
// under u's part lock, so an install either lands before the sweep
// visits u's part — and gets the sweep's verdict like a built view —
// or is refused and counted in Rejected: a view that may predate an
// ingest never outlives that ingest's sweep. A refused view still
// serves the request that fetched it. An incumbent view wins (both
// came from the same ingest history); a view whose length does not
// match the pool is never cached. Reports whether v was installed.
func (s *Store) Install(u dataset.UserID, v *View, deps cf.RowDeps, depsKnown bool, token uint64) bool {
	if v == nil || len(v.Scores) != len(s.pool) {
		return false
	}
	p := s.part(u)
	p.mu.Lock()
	if s.sweeps.Load() != token {
		p.mu.Unlock()
		s.rejected.Add(1)
		return false
	}
	if e, ok := p.entries[u]; ok {
		e.ref.Store(true)
		p.mu.Unlock()
		return false
	}
	p.evictLocked()
	p.installLocked(u, &builtView{view: v, deps: deps, depsKnown: depsKnown})
	p.mu.Unlock()
	s.installs.Add(1)
	return true
}

// installLocked links a settled view for u, its build-once consumed so
// the next Acquire is a hit. Callers hold the part's mu and have made
// room.
func (p *storePart) installLocked(u dataset.UserID, b *builtView) {
	e := &userEntry{}
	e.ref.Store(true)
	e.once.Do(func() { e.built.Store(b) })
	p.entries[u] = e
	p.ring = append(p.ring, u)
	delete(p.invalidated, u)
}

// evictLocked makes room for one more view via CLOCK: sweep the ring,
// give referenced entries a second chance, evict the first
// unreferenced one. Callers hold the part's mu.
func (p *storePart) evictLocked() {
	for len(p.ring) >= p.maxUsers {
		if p.hand >= len(p.ring) {
			p.hand = 0
		}
		u := p.ring[p.hand]
		e := p.entries[u]
		if e.ref.CompareAndSwap(true, false) {
			p.hand++
			continue
		}
		delete(p.entries, u)
		p.ring = append(p.ring[:p.hand], p.ring[p.hand+1:]...)
		p.evictions.Add(1)
	}
}

// build materializes one user's view: one batch prediction over the
// pool, normalized, plus one canonical sort — the pay-once cost the
// store amortizes. When the source reports dependencies, the view's
// fallback metadata rides along for scoped invalidation — unless the
// row was computed from an untracked neighborhood, which leaves the
// dependencies unknown.
func (s *Store) build(u dataset.UserID) *builtView {
	var (
		raw  []float64
		deps cf.RowDeps
	)
	if s.deps != nil {
		raw, deps = s.deps.PredictBatchDeps(u, s.pool)
	} else {
		raw = s.src.PredictBatch(u, s.pool)
	}
	scores := make([]float64, len(raw))
	for i, v := range raw {
		scores[i] = v / s.divisor
	}
	return &builtView{view: viewFromScores(scores), deps: deps, depsKnown: s.deps != nil && !deps.Untracked}
}

// viewFromScores derives the canonical sorted side of a view from its
// dense normalized scores. Build and the snapshot-restore path share
// it, so a restored view is bit-identical to one built in place: the
// sort is deterministic given the scores, which is why snapshots only
// persist the score vectors.
func viewFromScores(scores []float64) *View {
	entries := make([]core.Entry, len(scores))
	for p, v := range scores {
		entries[p] = core.Entry{Key: p, Value: v}
	}
	core.SortCanonical(entries)
	return &View{Scores: scores, Sorted: &core.SortedView{Entries: entries}}
}

// ViewFromScores derives the canonical sorted side of a view from its
// dense pool-order normalized scores — the same deterministic
// construction Build and the snapshot-restore path share. The remote
// data plane uses it to reconstruct a worker's view from the score
// vector shipped over the wire, bit-identically to a view built in
// place.
func ViewFromScores(scores []float64) *View { return viewFromScores(scores) }

// Invalidate drops u's view (rating ingest must call this for every
// user whose preferences changed; the next Acquire rebuilds). Only u's
// shard part is locked. It reports whether a view was actually
// dropped.
func (s *Store) Invalidate(u dataset.UserID) bool {
	p := s.part(u)
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.entries[u]; !ok {
		return false
	}
	delete(p.entries, u)
	for i, ru := range p.ring {
		if ru == u {
			p.ring = append(p.ring[:i], p.ring[i+1:]...)
			if p.hand > i {
				p.hand--
			}
			break
		}
	}
	p.invalidated[u] = true
	p.invalidations.Add(1)
	return true
}

// InvalidateAll drops every materialized view — the coherent ingest
// hook for events that change every user's preferences at once (any
// rating ingest shifts every user's neighborhood and therefore every
// view). Subsequent Acquires rebuild, counted as rebuilds. Returns the
// number of views dropped. In-flight builds are unaffected: their
// entry objects are unlinked here, so whatever they finish computing
// is returned to their callers but never served again.
func (s *Store) InvalidateAll() int {
	s.sweeps.Add(1)
	n := 0
	for _, p := range s.parts {
		p.mu.Lock()
		dropped := len(p.entries)
		for u := range p.entries {
			delete(p.entries, u)
			p.invalidated[u] = true
		}
		p.ring = p.ring[:0]
		p.hand = 0
		p.mu.Unlock()
		p.invalidations.Add(uint64(dropped))
		n += dropped
	}
	return n
}

// InvalidateScoped drops exactly the materialized views an ingest of
// item it with the given stale-user set can reach, retaining every
// other view warm. A view drops when its user is stale (the
// predictor's post-recheck verdict), when it is mid-build or carries
// no dependency metadata (nothing can be proven about it), or when it
// touched the global mean, which shifts on every ingest. A retained
// view whose fallback entries cover it itself is patched in place: the
// post-ingest item mean (patch, raw — the store applies its own
// divisor, the same operation a rebuild would) is spliced into the
// dense scores and moved within the sorted side by binary search under
// the canonical order, which is total (value desc, pool position asc),
// so the spliced sequence is bit-identical to a full re-sort. Returns
// the number of views dropped.
func (s *Store) InvalidateScoped(stale map[dataset.UserID]struct{}, it dataset.ItemID, patch float64, havePatch bool) int {
	s.sweeps.Add(1)
	patchScore := patch / s.divisor
	n := 0
	for _, p := range s.parts {
		p.mu.Lock()
		dropped, patched := 0, 0
		keptRing := p.ring[:0]
		for _, u := range p.ring {
			e := p.entries[u]
			b := e.built.Load()
			_, isStale := stale[u]
			switch {
			case isStale, b == nil, !b.depsKnown, b.deps.UsedGlobal:
				delete(p.entries, u)
				p.invalidated[u] = true
				dropped++
				continue
			case b.deps.DependsOn(it):
				if !havePatch {
					delete(p.entries, u)
					p.invalidated[u] = true
					dropped++
					continue
				}
				e.built.Store(&builtView{
					view:      patchView(b.view, b.deps, it, patchScore),
					deps:      b.deps, // positions still fall back, now to the new mean
					depsKnown: true,
				})
				patched++
			}
			keptRing = append(keptRing, u)
		}
		if dropped > 0 {
			p.ring = keptRing
			p.hand = 0
		}
		kept := len(keptRing)
		p.mu.Unlock()
		p.invalidations.Add(uint64(dropped))
		p.patched.Add(uint64(patched))
		p.retained.Add(uint64(kept))
		n += dropped
	}
	return n
}

// patchView returns a copy of v with patchScore spliced into every
// fallback position of item it: the dense score is overwritten and the
// matching sorted entry is moved to its new canonical slot by binary
// search — two O(log n) searches and one memmove per changed entry
// instead of an O(n log n) re-sort.
func patchView(v *View, deps cf.RowDeps, it dataset.ItemID, patchScore float64) *View {
	scores := append([]float64(nil), v.Scores...)
	entries := append([]core.Entry(nil), v.Sorted.Entries...)
	for di, f := range deps.FallbackItems {
		if f != it {
			continue
		}
		pos := int(deps.FallbackPos[di])
		old := scores[pos]
		if old == patchScore {
			continue
		}
		scores[pos] = patchScore
		i := searchCanonical(entries, old, pos)        // current slot of (old, pos)
		j := searchCanonical(entries, patchScore, pos) // target slot of (new, pos)
		moved := core.Entry{Key: pos, Value: patchScore}
		if j > i {
			copy(entries[i:], entries[i+1:j])
			entries[j-1] = moved
		} else {
			copy(entries[j+1:i+1], entries[j:i])
			entries[j] = moved
		}
	}
	return &View{Scores: scores, Sorted: &core.SortedView{Entries: entries}}
}

// searchCanonical returns the index of (val, key) in a canonically
// sorted entry slice — its current slot if present, its insertion
// point otherwise. The canonical order (value descending, key
// ascending on ties) is total over distinct keys, so the position is
// unique.
func searchCanonical(es []core.Entry, val float64, key int) int {
	return sort.Search(len(es), func(i int) bool {
		if es[i].Value != val {
			return es[i].Value < val
		}
		return es[i].Key >= key
	})
}

// UserView is one user's view in export form: only the dense score
// vector — the sorted side is a deterministic function of it and is
// re-derived on restore.
type UserView struct {
	User   dataset.UserID
	Scores []float64
}

// ExportViews snapshots every materialized view, sorted by user for
// deterministic output. Score slices are shared with the live views
// (views are immutable); callers must not mutate them.
func (s *Store) ExportViews() []UserView {
	var out []UserView
	for _, p := range s.parts {
		p.mu.Lock()
		for u, e := range p.entries {
			// Only settled views export: an entry mid-build has a nil
			// view and will be rebuilt on next start anyway.
			if v := e.viewOf(); v != nil {
				out = append(out, UserView{User: u, Scores: v.Scores})
			}
		}
		p.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].User < out[j].User })
	return out
}

// RestoreViews installs previously exported views, returning how many
// were installed. Each restored entry's build-once is consumed, so the
// next Acquire is a hit, not a build — restores count as WarmLoads,
// never ViewBuilds, which is how tests and operators verify a warm
// restart skipped the rebuild. Views with a score length that does not
// match the pool are skipped (a snapshot/config mismatch the caller's
// fingerprint should have caught), as are users already resident and
// users beyond a part's capacity budget.
func (s *Store) RestoreViews(views []UserView) int {
	restored := 0
	for _, uv := range views {
		if len(uv.Scores) != len(s.pool) {
			continue
		}
		p := s.part(uv.User)
		p.mu.Lock()
		if _, ok := p.entries[uv.User]; ok || len(p.ring) >= p.maxUsers {
			p.mu.Unlock()
			continue
		}
		// Restored views carry no dependency metadata (snapshots persist
		// scores only): depsKnown stays false, so the first scoped
		// invalidation drops them rather than wrongly retaining them.
		p.installLocked(uv.User, &builtView{view: viewFromScores(uv.Scores)})
		p.mu.Unlock()
		p.warmLoads.Add(1)
		restored++
	}
	return restored
}

// MapCandidates returns the memoized mapping of a candidate slice onto
// the pool. The walk consumes items in order against the pool in
// order, so the mapping is monotone — exactly the shape
// core.ViewSet.LocalOf requires — and anything unmatched (items beyond
// the pool, out of popularity order, or duplicated) lands in the patch
// suffix items[Matched:], keeping the served problem correct for any
// candidate slice.
func (s *Store) MapCandidates(items []dataset.ItemID) *Mapping {
	key := mapKey{fp: cf.FingerprintItems(items), n: len(items)}
	s.mapMu.Lock()
	m, ok := s.maps[key]
	s.mapMu.Unlock()
	if ok {
		s.mapHits.Add(1)
		s.patchItems.Add(uint64(len(items) - m.Matched))
		return m
	}
	s.mapMisses.Add(1)

	localOf := make([]int32, len(s.pool))
	j := 0
	for p, it := range s.pool {
		if j < len(items) && it == items[j] {
			localOf[p] = int32(j)
			j++
		} else {
			localOf[p] = -1
		}
	}
	m = &Mapping{LocalOf: localOf, Matched: j}
	s.patchItems.Add(uint64(len(items) - j))

	s.mapMu.Lock()
	if cached, ok := s.maps[key]; ok {
		m = cached // concurrent fill won
	} else {
		if len(s.maps) >= mapCacheCap {
			s.maps = make(map[mapKey]*Mapping, mapCacheCap)
		}
		s.maps[key] = m
	}
	s.mapMu.Unlock()
	return m
}

// Len reports the number of materialized views across all shards.
func (s *Store) Len() int {
	n := 0
	for _, p := range s.parts {
		p.mu.Lock()
		n += len(p.entries)
		p.mu.Unlock()
	}
	return n
}

// statsOf snapshots one part's counters.
func (p *storePart) statsOf() ShardStats {
	p.mu.Lock()
	size := len(p.entries)
	p.mu.Unlock()
	return ShardStats{
		ViewHits:      p.viewHits.Load(),
		ViewBuilds:    p.viewBuilds.Load(),
		Rebuilds:      p.rebuilds.Load(),
		Invalidations: p.invalidations.Load(),
		Evictions:     p.evictions.Load(),
		Retained:      p.retained.Load(),
		Patched:       p.patched.Load(),
		WarmLoads:     p.warmLoads.Load(),
		Size:          size,
		MaxUsers:      p.maxUsers,
	}
}

// StatsByShard snapshots each sub-store's per-user counters separately
// (the /stats per-shard breakdown); the entries sum exactly to the
// matching fields of Stats.
func (s *Store) StatsByShard() []ShardStats {
	out := make([]ShardStats, len(s.parts))
	for i, p := range s.parts {
		out[i] = p.statsOf()
	}
	return out
}

// Stats snapshots the store's counters: the per-user counters summed
// across shards plus the store-global mapping and patch counters. The
// counters are atomic and only eventually consistent with each other.
func (s *Store) Stats() Stats {
	return s.StatsFrom(s.StatsByShard())
}

// StatsFrom builds the aggregate Stats from an existing per-shard
// snapshot (as returned by StatsByShard) plus the store-global
// mapping and patch counters. Callers that need both the breakdown
// and the aggregate take one snapshot and derive both from it, so the
// two levels agree exactly and every part's lock is taken once.
func (s *Store) StatsFrom(parts []ShardStats) Stats {
	st := Stats{
		PatchItems:   s.patchItems.Load(),
		MapHits:      s.mapHits.Load(),
		MapMisses:    s.mapMisses.Load(),
		LookupMisses: s.lookupMisses.Load(),
		Installs:     s.installs.Load(),
		Rejected:     s.rejected.Load(),
		PoolSize:     len(s.pool),
	}
	for _, ss := range parts {
		st.ViewHits += ss.ViewHits
		st.ViewBuilds += ss.ViewBuilds
		st.Rebuilds += ss.Rebuilds
		st.Invalidations += ss.Invalidations
		st.Evictions += ss.Evictions
		st.Retained += ss.Retained
		st.Patched += ss.Patched
		st.WarmLoads += ss.WarmLoads
		st.Size += ss.Size
	}
	return st
}
