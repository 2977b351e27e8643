package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"

	"repro"
	"repro/internal/consensus"
	"repro/internal/dataset"
	"repro/internal/server"
)

// maxChecked bounds the sampled reads replayed on the reference world
// (fresh reads are always all checked).
const (
	maxChecked        = 40
	maxBatchesChecked = 3
)

// Verdict is the outcome of one correctness check.
type Verdict struct {
	Name    string
	Checked int
	Bad     int
}

func (v Verdict) String() string {
	return fmt.Sprintf("%-34s checked %4d  mismatched %d", v.Name, v.Checked, v.Bad)
}

func readKey(r *Read) string { return readPath(r) + " " + string(r.Body) }

// CheckRepeats checks that, in a read-only run, every answer to a body
// is byte-identical to the first. Mismatches are demoted in the tally.
func CheckRepeats(res *Results, batches []*BatchRec) Verdict {
	v := Verdict{Name: "repeat bytes identical"}
	first := map[string][32]byte{}
	seen := func(key string, h [32]byte) bool {
		f, ok := first[key]
		if !ok {
			first[key] = h
			return true
		}
		v.Checked++
		return f == h
	}
	for _, rr := range res.Reads {
		if rr.Status == http.StatusOK && !seen(readKey(rr.Read), rr.Hash) {
			v.Bad++
			res.Tally.Demote()
		}
	}
	for _, br := range batches {
		if !seen(string(br.Batch.Body), br.Hash) {
			v.Bad++
			res.Tally.Demote()
		}
	}
	return v
}

// wireItems decodes the items of a recommend answer.
type wireItems struct {
	Items []struct {
		Item       int     `json:"item"`
		Score      float64 `json:"score"`
		UpperBound float64 `json:"upper_bound"`
	} `json:"items"`
}

func options(wr wireRequest) (repro.Options, error) {
	spec, err := consensus.Parse(wr.Consensus)
	if err != nil {
		return repro.Options{}, err
	}
	return repro.Options{K: wr.K, NumItems: wr.NumItems, Consensus: spec, Period: wr.Period}, nil
}

func groupOf(g []int) []dataset.UserID {
	out := make([]dataset.UserID, len(g))
	for i, u := range g {
		out[i] = dataset.UserID(u)
	}
	return out
}

// sameItems compares a decoded answer with a direct World.Recommend.
func sameItems(body []byte, rec *repro.Recommendation) bool {
	var wi wireItems
	if json.Unmarshal(body, &wi) != nil || len(wi.Items) != len(rec.Items) {
		return false
	}
	for i, it := range wi.Items {
		r := rec.Items[i]
		if it.Item != int(r.Item) || it.Score != r.Score || it.UpperBound != r.UpperBound {
			return false
		}
	}
	return true
}

// Reference is an in-process world at the stack's shard count, served
// through its own handler without a network.
type Reference struct {
	World *repro.World
	srv   *server.Server
}

func NewReference() (*Reference, error) {
	w, err := repro.NewWorld(paperConfig())
	if err != nil {
		return nil, fmt.Errorf("reference world: %w", err)
	}
	return &Reference{World: w, srv: server.New(w, server.Config{})}, nil
}

func (r *Reference) Close() { r.srv.Close() }

// Bytes answers path/body through the reference handler.
func (r *Reference) Bytes(path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	r.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// checkRead compares one recorded read with the reference in its
// current state: identical bytes, and for plain reads the same items,
// scores and bounds as a direct RecommendContext.
func (r *Reference) checkRead(rr *ReadRec) (sameBytes, sameDirect bool) {
	code, body := r.Bytes(readPath(rr.Read), rr.Read.Body)
	sameBytes = code == rr.Status && sha256.Sum256(body) == rr.Hash
	if rr.Read.Stream {
		return sameBytes, true
	}
	opt, err := options(rr.Read.Wire)
	if err != nil {
		return sameBytes, false
	}
	rec, err := r.World.RecommendContext(context.Background(), groupOf(rr.Read.Wire.Group), opt)
	return sameBytes, err == nil && sameItems(rr.Body, rec)
}

// VerifyReads replays the run's ratings, in their application order,
// on a fresh reference world and checks at each prefix the reads whose
// world state is pinned to it: every fresh read plus a seeded sample of
// the rest. Mismatches are demoted in the tally.
func VerifyReads(ref *Reference, res *Results, seed int64) ([]Verdict, error) {
	byPrefix := map[int][]*ReadRec{}
	var pinned []*ReadRec
	seen := map[string]bool{}
	for _, rr := range res.Reads {
		if rr.Status != http.StatusOK || rr.Before != rr.After {
			continue
		}
		if rr.Fresh {
			byPrefix[rr.Before] = append(byPrefix[rr.Before], rr)
			continue
		}
		key := fmt.Sprintf("%d %s", rr.Before, readKey(rr.Read))
		if !seen[key] {
			seen[key] = true
			pinned = append(pinned, rr)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	rng.Shuffle(len(pinned), func(i, j int) { pinned[i], pinned[j] = pinned[j], pinned[i] })
	if len(pinned) > maxChecked {
		pinned = pinned[:maxChecked]
	}
	for _, rr := range pinned {
		byPrefix[rr.Before] = append(byPrefix[rr.Before], rr)
	}
	prefixes := make([]int, 0, len(byPrefix))
	for p := range byPrefix {
		prefixes = append(prefixes, p)
	}
	sort.Ints(prefixes)

	// answeredAt maps each read to the pinned prefixes it was answered
	// at, by answer hash, to name a mismatch: bytes equal to an answer
	// at an earlier prefix are a stale read.
	answeredAt := map[string]map[[32]byte]int{}
	for _, rr := range res.Reads {
		if rr.Status == http.StatusOK && rr.Before == rr.After {
			k := readKey(rr.Read)
			if answeredAt[k] == nil {
				answeredAt[k] = map[[32]byte]int{}
			}
			if p, ok := answeredAt[k][rr.Hash]; !ok || rr.Before < p {
				answeredAt[k][rr.Hash] = rr.Before
			}
		}
	}

	sampled := Verdict{Name: "sample bytes == reference world"}
	direct := Verdict{Name: "sample items == World.Recommend"}
	fresh := Verdict{Name: "fresh reads == replayed world"}
	applied := 0
	for _, p := range prefixes {
		for applied < p {
			r := res.Applied[applied]
			if err := ref.World.AddRating(dataset.Rating{User: dataset.UserID(r.User), Item: dataset.ItemID(r.Item), Value: r.Value, Time: r.Time}); err != nil {
				return nil, fmt.Errorf("replaying rating %d: %w", applied, err)
			}
			applied++
		}
		for _, rr := range byPrefix[p] {
			sameBytes, sameDirect := ref.checkRead(rr)
			v := &sampled
			if rr.Fresh {
				v = &fresh
			}
			v.Checked++
			if !sameBytes {
				v.Bad++
			}
			if !rr.Read.Stream {
				direct.Checked++
				if !sameDirect {
					direct.Bad++
				}
			}
			if !sameBytes || !sameDirect {
				res.Tally.Demote()
				what := "bytes differ from the reference at this prefix"
				if p, ok := answeredAt[readKey(rr.Read)][rr.Hash]; ok && p < rr.Before {
					what = fmt.Sprintf("stale: bytes equal this read's answer at prefix %d", p)
				}
				fmt.Fprintf(os.Stderr, "mismatch: %s %s at prefix %d (fresh=%v): %s\n", readPath(rr.Read), rr.Read.Body, rr.Before, rr.Fresh, what)
			}
		}
	}
	out := []Verdict{sampled, direct}
	if len(res.Applied) > 0 {
		out = append(out, fresh)
	}
	return out, nil
}

// VerifyBatches checks a seeded sample of paper-batch answers: bytes
// identical to the reference handler's, and every entry's items equal
// to a direct RecommendContext on the reference world.
func VerifyBatches(ref *Reference, res *Results, recs []*BatchRec, seed int64) []Verdict {
	seen := map[string]bool{}
	var distinct []*BatchRec
	for _, br := range recs {
		if !seen[string(br.Batch.Body)] {
			seen[string(br.Batch.Body)] = true
			distinct = append(distinct, br)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	rng.Shuffle(len(distinct), func(i, j int) { distinct[i], distinct[j] = distinct[j], distinct[i] })
	if len(distinct) > maxBatchesChecked {
		distinct = distinct[:maxBatchesChecked]
	}
	bytesV := Verdict{Name: "batch bytes == reference world"}
	direct := Verdict{Name: "batch items == World.Recommend"}
	for _, br := range distinct {
		bytesV.Checked++
		code, body := ref.Bytes("/v1/recommend/batch", br.Batch.Body)
		ok := code == http.StatusOK && sha256.Sum256(body) == br.Hash
		if !ok {
			bytesV.Bad++
		}
		var out struct {
			Results []struct {
				Response json.RawMessage `json:"response"`
			} `json:"results"`
		}
		if json.Unmarshal(br.Body, &out) != nil || len(out.Results) != len(br.Batch.Entries) {
			direct.Checked++
			direct.Bad++
			ok = false
		} else {
			for i, e := range br.Batch.Entries {
				direct.Checked++
				opt, err := options(e)
				var rec *repro.Recommendation
				if err == nil {
					rec, err = ref.World.RecommendContext(context.Background(), groupOf(e.Group), opt)
				}
				if err != nil || !sameItems(out.Results[i].Response, rec) {
					direct.Bad++
					ok = false
				}
			}
		}
		if !ok {
			res.Tally.Demote()
		}
	}
	return []Verdict{bytesV, direct}
}
