package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro"
	"repro/internal/dataset"
)

// Traffic shape shared by the open-loop workloads (interactive,
// ingest-mix and distributed read the same stream).
const (
	poolPerSize      = 128 // distinct groups per size the Zipf draw ranks
	interactiveItems = 600 // num_items of every interactive read
	streamEvery      = 8   // 1 in streamEvery reads goes to /v1/recommend/stream
	zipfS            = 1.1 // Zipf exponent over a size's pool
	zipfV            = 8   // Zipf offset: rank r is drawn ∝ (zipfV+r)^-zipfS
	topK             = 10

	// corpusSeed draws the corpora once: the interactive group pools,
	// the closed-loop read cycle, the paper-batch set (like the paper's
	// fixed study groups) and the rating sequence of the ingest
	// workloads, so every run applies the same ratings in the same
	// order. The run seed drives everything else: arrivals, the open
	// loop's draws from the pools, call order.
	corpusSeed = 1

	// Open-loop read rates, set once. The 2-client closed loop
	// measured ~130 reads/s in interactive, ~93/s in ingest-mix and
	// ~81/s in distributed (beside their writers) on a 2-vCPU host;
	// the rates sit at a quarter to a third of that, below the half-capacity point,
	// because two senders queue behind PD1's long runs hard enough at
	// half capacity that the median read mostly measures generator
	// lateness.
	interactiveRate = 35.0 // reads per second, interactive
	ingestReadRate  = 30.0 // reads per second, ingest-mix
	distributedRate = 25.0 // reads per second, router + two workers

	// Rating rates, set once. One closed-loop writer of this mix (each
	// participant rating followed by its fresh read; no other traffic)
	// measured 39-46 ratings/s in-process with a WAL (ack p50 14-16 ms,
	// fresh read p50 67-76 ms) and 21-22 ratings/s through the router
	// (ack p50 33-34 ms, fresh read p50 93-101 ms) on the same 2-vCPU
	// host. ingest-mix writes at 3 ratings/s, about a fourteenth of its
	// figure: beside a writer at 3, 5 and 10 ratings/s the 2-client
	// closed-loop read capacity fell from ~125/s to ~114/s, 70-90/s
	// and ~20/s, and from 5/s on the server fell behind and the figures
	// spread by 0.15-0.2 between seeds (0.06 at 3/s). distributed
	// trickles at a fifth of its figure. The writer runs through the
	// whole measured window, closed loop included.
	ingestRate  = 3.0 // ratings per second, ingest-mix writer
	trickleRate = 4.0 // ratings per second, distributed writer

	// participantEvery: one rating in this many is by a participant.
	// A neighbor's rating invalidated 0-2 of the 72 participant views
	// and a participant's 3-69 (measured), so the participant share
	// sets how often readers rebuild their views.
	participantEvery = 10

	// openShare is the part of --seconds spent in the open loop; the
	// rest measures closed-loop capacity with two clients.
	openShare = 0.5

	// closedCycle is the length of the closed loop's read cycle: four
	// blocks of the read deck, drawn once from the corpus seed and
	// replayed in the run's order. Capacity counts whole passes, so
	// every run's figure rests on the same reads; a cycle drawn per
	// seed moved interactive's capacity by 0.17 between seeds against
	// 0.04 between runs of one seed.
	closedCycle = 160

	paperItems = 3900 // §4.2 default candidate count
)

// paperSizes is the Figure 5B group-size sweep with its per-size count
// in the fixed set; size 6 is the paper's default and dominates. With
// half these counts the median call fell between size-6 groups of
// different cost and moved by 0.17 between runs.
var paperSizes = []struct{ size, count int }{{3, 8}, {6, 24}, {9, 6}, {12, 4}}

// interactiveSizes are the interactive group sizes, equally often.
var interactiveSizes = []int{2, 3, 4, 5}

// consensusMix is the interactive consensus mix, 50/40/10 AP/MO/PD1:
// a PD1 run at these sizes costs 10-100x an AP or MO run, so a tenth
// of the reads already carries most of the CPU.
var consensusMix = []struct {
	name  string
	count int
}{{"AP", 5}, {"MO", 4}, {"PD1", 1}}

// readKind is one (size, consensus) cell of the interactive mix; the
// cells are dealt from a deck holding every size with every consensus
// card, so each run has exactly the mix's joint proportions.
type readKind struct {
	size      int
	consensus string
}

func readKinds() []readKind {
	var out []readKind
	for _, size := range interactiveSizes {
		for _, c := range consensusMix {
			for i := 0; i < c.count; i++ {
				out = append(out, readKind{size, c.name})
			}
		}
	}
	return out
}

// wireRequest mirrors the server's recommend body.
type wireRequest struct {
	Group     []int  `json:"group"`
	K         int    `json:"k"`
	NumItems  int    `json:"num_items"`
	Consensus string `json:"consensus"`
	Period    int    `json:"period"`
}

// Read is one generated recommend request.
type Read struct {
	Wire   wireRequest
	Stream bool // sent to /v1/recommend/stream
	Body   []byte
}

// Batch is one generated POST /v1/recommend/batch call.
type Batch struct {
	Entries []wireRequest
	Body    []byte
}

// Rating is one generated POST /v1/ratings call. Fresh, when set, is the
// read of a group containing the rater that follows the rating.
type Rating struct {
	User  int     `json:"user"`
	Item  int     `json:"item"`
	Value float64 `json:"value"`
	Time  int64   `json:"time"`
	Fresh *Read   `json:"-"`
}

// Event is one scheduled open-loop arrival: a read or a rating.
type Event struct {
	Due    time.Duration
	Read   *Read
	Rating *Rating
}

// Traffic is every input one run sends, generated from the seed.
type Traffic struct {
	Open    []Event // open-loop schedule, sorted by Due
	OpenFor time.Duration
	Closed  []*Read // closed-loop read cycle
	// ClosedRatings are the writer's ratings during the closed loop,
	// Due from its start.
	ClosedRatings []Event
	Batches       []*Batch // paper-batch closed-loop cycle
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs are marshalled
	}
	return b
}

func newRead(wr wireRequest, stream bool) *Read {
	return &Read{Wire: wr, Stream: stream, Body: mustJSON(wr)}
}

// drawGroup picks size distinct participants.
func drawGroup(rng *rand.Rand, parts []dataset.UserID, size int) []int {
	perm := rng.Perm(len(parts))[:size]
	g := make([]int, size)
	for i, p := range perm {
		g[i] = int(parts[p])
	}
	return g
}

// deck deals its cards in shuffled blocks: every block holds each card
// once, so proportions are exact over each block and the order is
// seeded.
type deck[T any] struct {
	rng   *rand.Rand
	cards []T
	next  int
}

func newDeck[T any](rng *rand.Rand, cards []T) *deck[T] {
	return &deck[T]{rng: rng, cards: append([]T(nil), cards...), next: len(cards)}
}

func (d *deck[T]) deal() T {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// readStream draws interactive reads: a size, consensus, period and
// endpoint dealt from decks, and a Zipf-ranked group of that size from
// the fixed corpus.
type readStream struct {
	pools   [][][]int
	zipf    []*rand.Zipf
	kinds   *deck[readKind]
	periods *deck[int]
	stream  *deck[bool]
}

func newReadStream(rng *rand.Rand, parts []dataset.UserID, periods int) *readStream {
	corpus := rand.New(rand.NewSource(corpusSeed))
	s := &readStream{kinds: newDeck(rng, readKinds())}
	for _, size := range interactiveSizes {
		pool := make([][]int, poolPerSize)
		for i := range pool {
			pool[i] = drawGroup(corpus, parts, size)
		}
		s.pools = append(s.pools, pool)
		s.zipf = append(s.zipf, rand.NewZipf(rng, zipfS, zipfV, poolPerSize-1))
	}
	ps := make([]int, periods)
	for i := range ps {
		ps[i] = i + 1
	}
	s.periods = newDeck(rng, ps)
	ends := make([]bool, streamEvery)
	ends[0] = true
	s.stream = newDeck(rng, ends)
	return s
}

func (s *readStream) next() *Read {
	kind := s.kinds.deal()
	k := kind.size - interactiveSizes[0]
	g := s.pools[k][s.zipf[k].Uint64()]
	wr := wireRequest{Group: g, K: topK, NumItems: interactiveItems, Consensus: kind.consensus, Period: s.periods.deal()}
	return newRead(wr, s.stream.deal())
}

// poisson returns seeded exponential arrival offsets at rate per second
// within [0, d).
func poisson(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, due)
	}
}

// raterPool lists the non-participant raters of the ingest workloads:
// for each participant, the non-participant whose rated items overlap
// its own the most (cosine over rated-item sets), among users who have
// left at least half of the popular items unrated. Only the rating
// store is read, so no cache of the system under test is touched.
func raterPool(store *dataset.Store, parts []dataset.UserID, popular []dataset.ItemID) []dataset.UserID {
	isPart := make(map[dataset.UserID]bool, len(parts))
	for _, u := range parts {
		isPart[u] = true
	}
	eligible := func(v dataset.UserID) bool {
		unrated := 0
		for _, it := range popular {
			if !store.HasRated(v, it) {
				unrated++
			}
		}
		return 2*unrated >= len(popular)
	}
	seen := make(map[dataset.UserID]bool)
	var out []dataset.UserID
	for _, u := range parts {
		overlap := make(map[dataset.UserID]int)
		for _, r := range store.ByUser(u) {
			for _, o := range store.ByItem(r.Item) {
				if !isPart[o.User] {
					overlap[o.User]++
				}
			}
		}
		cands := make([]dataset.UserID, 0, len(overlap))
		score := make(map[dataset.UserID]float64, len(overlap))
		for v, n := range overlap {
			cands = append(cands, v)
			score[v] = float64(n) / math.Sqrt(float64(len(store.ByUser(v))))
		}
		sort.Slice(cands, func(i, j int) bool {
			if score[cands[i]] != score[cands[j]] {
				return score[cands[i]] > score[cands[j]]
			}
			return cands[i] < cands[j]
		})
		for _, v := range cands {
			if eligible(v) {
				if !seen[v] {
					seen[v] = true
					out = append(out, v)
				}
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ratingStream draws ratings: every participantEvery-th by a
// participant (followed by a fresh read of a group containing the
// rater), the rest by non-participant neighbors. Every rating is of a
// popular item the rater has not rated, and no (user, item) pair
// repeats within a run.
type ratingStream struct {
	rng       *rand.Rand
	store     *dataset.Store
	popular   []dataset.ItemID
	parts     []dataset.UserID
	neighbors []dataset.UserID
	rated     map[[2]int]bool
	periods   int
	clock     int64
	n         int
}

func (s *ratingStream) next() *Rating {
	participant := len(s.neighbors) == 0 || s.n%participantEvery == 0
	s.n++
	var (
		u  dataset.UserID
		it dataset.ItemID
	)
	for found := false; !found; {
		if participant {
			u = s.parts[s.rng.Intn(len(s.parts))]
		} else {
			u = s.neighbors[s.rng.Intn(len(s.neighbors))]
		}
		// A heavy rater may have rated most popular items; a few misses
		// move on to another rater.
		for try := 0; try < 64 && !found; try++ {
			it = s.popular[s.rng.Intn(len(s.popular))]
			found = !s.store.HasRated(u, it) && !s.rated[[2]int{int(u), int(it)}]
		}
	}
	s.rated[[2]int{int(u), int(it)}] = true
	s.clock++
	r := &Rating{User: int(u), Item: int(it), Value: float64(1 + s.rng.Intn(5)), Time: s.clock}
	if participant {
		g := drawGroup(s.rng, s.parts, 2+s.rng.Intn(3))
		has := false
		for _, m := range g {
			has = has || m == int(u)
		}
		if !has {
			g[0] = int(u)
		}
		r.Fresh = newRead(wireRequest{Group: g, K: topK, NumItems: interactiveItems, Consensus: "AP", Period: s.periods}, false)
	}
	return r
}

// GenTraffic builds the run's inputs for the workload from the seed.
// It reads the world's participants, timeline and rating store only to
// pick groups, raters and unrated items; the system sees nothing but
// the generated requests.
func GenTraffic(wl string, seed int64, seconds float64, w *repro.World) (*Traffic, error) {
	rng := rand.New(rand.NewSource(seed))
	parts := w.Participants()
	periods := w.Timeline().NumPeriods()
	total := time.Duration(seconds * float64(time.Second))
	tr := &Traffic{}

	if wl == "paper-batch" {
		corpus := rand.New(rand.NewSource(corpusSeed))
		var set []*Batch
		for _, ps := range paperSizes {
			for i := 0; i < ps.count; i++ {
				g := drawGroup(corpus, parts, ps.size)
				p := 1 + len(set)%periods // Figure 6: periods cycle 1..6 over the set
				b := &Batch{}
				for _, c := range []string{"AP", "MO"} {
					b.Entries = append(b.Entries, wireRequest{Group: g, K: topK, NumItems: paperItems, Consensus: c, Period: p})
				}
				b.Body = mustJSON(map[string]any{"requests": b.Entries})
				set = append(set, b)
			}
		}
		rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
		tr.Batches = set
		return tr, nil
	}

	reads := newReadStream(rng, parts, periods)
	rate, wrate := interactiveRate, 0.0
	switch wl {
	case "ingest-mix":
		rate, wrate = ingestReadRate, ingestRate
	case "distributed":
		rate, wrate = distributedRate, trickleRate
	case "interactive":
	default:
		return nil, fmt.Errorf("unknown workload %q", wl)
	}
	tr.OpenFor = time.Duration(float64(total) * openShare)
	for _, due := range poisson(rng, rate, tr.OpenFor) {
		tr.Open = append(tr.Open, Event{Due: due, Read: reads.next()})
	}
	if wrate > 0 {
		popular := w.Ratings().PopularityRanked()[:interactiveItems]
		rs := &ratingStream{
			rng: rand.New(rand.NewSource(corpusSeed)), store: w.Ratings(), popular: popular,
			parts: parts, neighbors: raterPool(w.Ratings(), parts, popular), rated: map[[2]int]bool{}, periods: periods,
			clock: w.Timeline().End,
		}
		// One writer at a fixed interval through both phases, starting
		// half an interval into each.
		every := time.Duration(float64(time.Second) / wrate)
		for due := every / 2; due < tr.OpenFor; due += every {
			tr.Open = append(tr.Open, Event{Due: due, Rating: rs.next()})
		}
		sort.SliceStable(tr.Open, func(i, j int) bool { return tr.Open[i].Due < tr.Open[j].Due })
		for due := every / 2; due < total-tr.OpenFor; due += every {
			tr.ClosedRatings = append(tr.ClosedRatings, Event{Due: due, Rating: rs.next()})
		}
	}
	// The closed loop cycles a fixed draw of the same stream.
	cycle := newReadStream(rand.New(rand.NewSource(corpusSeed)), parts, periods)
	for i := 0; i < closedCycle; i++ {
		tr.Closed = append(tr.Closed, cycle.next())
	}
	rng.Shuffle(len(tr.Closed), func(i, j int) { tr.Closed[i], tr.Closed[j] = tr.Closed[j], tr.Closed[i] })
	return tr, nil
}
