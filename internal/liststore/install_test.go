package liststore

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cf"
	"repro/internal/dataset"
	"repro/internal/shard"
)

// fetched returns u's view as a worker would ship it: the stub
// source's scores over the pool, normalized, with the canonical sorted
// side derived from them.
func fetched(u dataset.UserID, pool []dataset.ItemID) *View {
	raw := (&stubSource{}).PredictBatch(u, pool)
	for i := range raw {
		raw[i] /= 5
	}
	return ViewFromScores(raw)
}

// TestLookupAndInstall pins the install path's bookkeeping: a miss
// counts, an install is served by the next Lookup as a hit, an
// incumbent wins over a second install, and a view whose length does
// not match the pool is never cached.
func TestLookupAndInstall(t *testing.T) {
	pool := testPool(4)
	src := &stubSource{}
	s := New(src, pool, 8, 5)

	if v := s.Lookup(1); v != nil {
		t.Fatalf("Lookup on an empty store = %v, want nil", v)
	}
	v := fetched(1, pool)
	if !s.Install(1, v, cf.RowDeps{}, true, s.SweepToken()) {
		t.Fatal("install into a quiet store was refused")
	}
	if got := s.Lookup(1); got != v {
		t.Error("Lookup did not return the installed view")
	}
	if s.Install(1, fetched(1, pool), cf.RowDeps{}, true, s.SweepToken()) {
		t.Error("second install replaced the incumbent view")
	}
	if s.Install(2, ViewFromScores([]float64{1}), cf.RowDeps{}, true, s.SweepToken()) {
		t.Error("a view shorter than the pool was installed")
	}
	// An installed view is settled: Acquire serves it without a build.
	if got := s.Acquire(1); got != v || src.batchCalls.Load() != 0 {
		t.Errorf("Acquire after install built a view (%d source calls)", src.batchCalls.Load())
	}
	st := s.Stats()
	if st.ViewHits != 2 || st.LookupMisses != 1 || st.Installs != 1 || st.Rejected != 0 || st.Size != 1 {
		t.Errorf("stats = %d hits / %d misses / %d installs / %d rejected / %d resident, want 2 / 1 / 1 / 0 / 1",
			st.ViewHits, st.LookupMisses, st.Installs, st.Rejected, st.Size)
	}
}

// TestInstallRefusedAfterSweep: a token read before either kind of
// sweep is refused afterwards and counted; a token read after the
// sweep installs.
func TestInstallRefusedAfterSweep(t *testing.T) {
	pool := testPool(4)
	sweeps := map[string]func(s *Store){
		"scoped": func(s *Store) { s.InvalidateScoped(nil, 10, 0, false) },
		"all":    func(s *Store) { s.InvalidateAll() },
	}
	for name, sweep := range sweeps {
		t.Run(name, func(t *testing.T) {
			s := New(&stubSource{}, pool, 8, 5)
			token := s.SweepToken()
			sweep(s)
			if s.Install(3, fetched(3, pool), cf.RowDeps{}, true, token) {
				t.Fatal("install with a pre-sweep token was accepted")
			}
			if s.Lookup(3) != nil {
				t.Error("refused view is resident")
			}
			if st := s.Stats(); st.Rejected != 1 || st.Installs != 0 {
				t.Errorf("rejected/installs = %d/%d, want 1/0", st.Rejected, st.Installs)
			}
			if !s.Install(3, fetched(3, pool), cf.RowDeps{}, true, s.SweepToken()) {
				t.Error("install with a post-sweep token was refused")
			}
		})
	}
}

// TestInstalledViewsGetSweepVerdicts: views that land before a sweep
// get exactly the verdicts built views get — stale, unknown-deps and
// global-mean views drop, a view depending on the rated item is
// patched bit-identically to a re-sort (or dropped without a patch
// value), and an independent view is retained as the same object.
func TestInstalledViewsGetSweepVerdicts(t *testing.T) {
	pool := testPool(6) // items 10..60
	deps := map[dataset.UserID]cf.RowDeps{
		1: {},
		2: {FallbackItems: []dataset.ItemID{30, 50}, FallbackPos: []int32{2, 4}},
		3: {},
		4: {UsedGlobal: true},
		5: {},
	}
	install := func(s *Store) map[dataset.UserID]*View {
		views := map[dataset.UserID]*View{}
		for u := dataset.UserID(1); u <= 5; u++ {
			views[u] = fetched(u, pool)
			if !s.Install(u, views[u], deps[u], u != 5, s.SweepToken()) { // u5: deps unknown
				t.Fatalf("install of u%d refused", u)
			}
		}
		return views
	}

	s := NewSharded(&stubSource{}, pool, 16, 5, shardMap(t, 4))
	views := install(s)
	rawPatch := 4.2
	if dropped := s.InvalidateScoped(map[dataset.UserID]struct{}{1: {}}, 30, rawPatch, true); dropped != 3 {
		t.Errorf("sweep dropped %d installed views, want 3 (stale u1, global u4, unknown u5)", dropped)
	}
	for _, u := range []dataset.UserID{1, 4, 5} {
		if s.Lookup(u) != nil {
			t.Errorf("u%d survived the sweep", u)
		}
	}
	if s.Lookup(3) != views[3] {
		t.Error("independent installed view was not retained as-is")
	}
	wantScores := append([]float64(nil), views[2].Scores...)
	wantScores[2] = rawPatch / 5
	want := ViewFromScores(wantScores)
	got := s.Lookup(2)
	if got == nil || !reflect.DeepEqual(got.Scores, want.Scores) || !reflect.DeepEqual(got.Sorted.Entries, want.Sorted.Entries) {
		t.Errorf("patched installed view = %+v, want the re-sorted %+v", got, want)
	}
	if st := s.Stats(); st.Invalidations != 3 || st.Patched != 1 || st.Retained != 2 {
		t.Errorf("stats = %d dropped / %d patched / %d retained, want 3 / 1 / 2", st.Invalidations, st.Patched, st.Retained)
	}

	// Without a patch value the dependent view drops too.
	s = New(&stubSource{}, pool, 16, 5)
	install(s)
	s.InvalidateScoped(nil, 30, 0, false)
	if s.Lookup(2) != nil {
		t.Error("dependent view survived a sweep without a patch value")
	}
	if s.Lookup(3) == nil {
		t.Error("independent view dropped by a sweep without a patch value")
	}
}

// TestInstallSweepRace races installs and lookups against sweeps that
// model ingests: each ingest bumps a version before its sweep, every
// fetched view carries the version it was fetched at, and every sweep
// marks all users stale. Once quiet, every resident view must carry the
// final version — a view fetched before any ingest must never outlive
// that ingest's sweep. Run with -race.
func TestInstallSweepRace(t *testing.T) {
	const users = 16
	pool := testPool(8)
	s := NewSharded(&stubSource{}, pool, users, 5, shardMap(t, 4))
	stale := make(map[dataset.UserID]struct{}, users)
	for u := dataset.UserID(0); u < users; u++ {
		stale[u] = struct{}{}
	}
	var version atomic.Int64
	versioned := func(v int64) *View {
		scores := make([]float64, len(pool))
		for i := range scores {
			scores[i] = float64(v)
		}
		return ViewFromScores(scores)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				u := dataset.UserID((g*5 + n) % users)
				if s.Lookup(u) != nil {
					continue
				}
				token := s.SweepToken()
				v := versioned(version.Load()) // the "fetch"
				s.Install(u, v, cf.RowDeps{}, true, token)
			}
		}(g)
	}
	for i := 0; i < 300; i++ {
		version.Add(1)
		if i%5 == 0 {
			s.InvalidateAll()
		} else {
			s.InvalidateScoped(stale, 10, 0, false)
		}
	}
	// Let the installers land views at the final version too.
	for deadline := time.Now().Add(5 * time.Second); s.Stats().Installs == 0 && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()

	final := float64(version.Load())
	for u := dataset.UserID(0); u < users; u++ {
		if v := s.Lookup(u); v != nil && v.Scores[0] != final {
			t.Errorf("u%d resident at version %v after the final sweep at %v", u, v.Scores[0], final)
		}
	}
	if st := s.Stats(); st.Installs == 0 {
		t.Errorf("race produced no installs: %+v", st)
	}
}

func shardMap(t *testing.T, n int) shard.Map {
	t.Helper()
	m, err := shard.New(n)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
