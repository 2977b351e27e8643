package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/dataset"
	"repro/internal/server"
)

// clients is the load generator's concurrency: at most this many
// goroutines and connections, one per vCPU of the 2-vCPU machine the
// rates were set on.
const clients = 2

// Client speaks HTTP to the stack over at most `clients` connections.
type Client struct {
	hc   *http.Client
	base string
}

func NewClient(base string) *Client {
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	return &Client{hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}, base: base}
}

// Close drops the idle connections.
func (c *Client) Close() { c.hc.CloseIdleConnections() }

// Response is one answered HTTP call.
type Response struct {
	Status int
	Body   []byte
	// FirstFrame is when the first SSE progress frame had fully
	// arrived (stream calls only).
	FirstFrame time.Time
	Done       time.Time
}

// Post sends body to path. For stream calls it notes when the first
// progress frame arrived and reads the event stream to its end.
func (c *Client) Post(path string, body []byte, stream bool) (Response, error) {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return Response{}, err
	}
	defer resp.Body.Close()
	out := Response{Status: resp.StatusCode}
	if !stream || resp.StatusCode != http.StatusOK {
		out.Body, err = io.ReadAll(resp.Body)
		out.Done = time.Now()
		return out, err
	}
	br := bufio.NewReader(resp.Body)
	var buf bytes.Buffer
	inProgress := false
	for {
		line, err := br.ReadBytes('\n')
		buf.Write(line)
		if out.FirstFrame.IsZero() {
			switch {
			case bytes.HasPrefix(line, []byte("event: progress")):
				inProgress = true
			case inProgress && bytes.HasPrefix(line, []byte("data:")):
				out.FirstFrame = time.Now()
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return out, err
		}
	}
	out.Body = buf.Bytes()
	out.Done = time.Now()
	return out, nil
}

// Get fetches path and decodes its JSON body into v.
func (c *Client) Get(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// StatsSnap is the part of GET /v1/stats the benchmark takes deltas of.
type StatsSnap struct {
	Coalescer server.CoalescerStats `json:"coalescer"`
	Mux       repro.MuxStats        `json:"mux"`
	Caches    repro.CacheStats      `json:"caches"`
	Ingest    struct {
		Store dataset.DeltaStats `json:"store"`
	} `json:"ingest"`
	Remote repro.RemoteStats `json:"remote"`
}

func readPath(r *Read) string {
	if r.Stream {
		return "/v1/recommend/stream"
	}
	return "/v1/recommend"
}

// ReadRec is one answered read, kept for the correctness checks.
type ReadRec struct {
	Read   *Read
	Status int
	Hash   [32]byte
	Body   []byte // kept for non-stream reads only
	// Before is the number of ratings acknowledged when the read was
	// sent; After the number whose POST had started when its answer
	// arrived. Equal values pin the world state the read saw.
	Before, After int
	Fresh         bool
}

// Results is everything one timed run measured.
type Results struct {
	mu sync.Mutex

	Tally       Tally
	Recommend   Sample // open-loop /v1/recommend, from due time
	StreamFirst Sample // open-loop stream, due time to first progress frame
	Service     Sample // open-loop /v1/recommend, from send time
	RatingAck   Sample
	// AckMS and Pending hold, per applied rating in order, its ack
	// latency and the pending-delta count the ack reported.
	AckMS   []float64
	Pending []float64
	Visible Sample // participant rating sent to fresh read answered
	Late    Sample // generator lateness
	Sent    int

	ClosedOK      int
	ClosedElapsed time.Duration
	ClosedLatency Sample // closed-loop reads, send to answer
	// ClosedDone[i] is when the closed loop's i-th read completed,
	// from the start of the closed loop.
	ClosedDone []time.Duration

	BatchLatency Sample
	Groups       int
	BatchCalls   int

	Reads   []*ReadRec
	Applied []*Rating // ratings in application order
}

// Loadgen drives one stack.
type Loadgen struct {
	c   *Client
	res *Results
	// writer serializes ratings and their fresh reads: one logical
	// writer, so the application order is the order recorded.
	writer  sync.Mutex
	started atomic.Int64 // rating POSTs begun
	acked   atomic.Int64 // rating POSTs acknowledged
}

func NewLoadgen(c *Client) *Loadgen { return &Loadgen{c: c, res: &Results{}} }

func okStream(resp Response) bool {
	return resp.Status == http.StatusOK && !resp.FirstFrame.IsZero() && bytes.Contains(resp.Body, []byte("event: result"))
}

// read sends one read and records it; due is when it was scheduled.
func (lg *Loadgen) read(r *Read, due time.Time, open, fresh bool) (Response, bool) {
	before := int(lg.acked.Load())
	sent := time.Now()
	resp, err := lg.c.Post(readPath(r), r.Body, r.Stream)
	after := int(lg.started.Load())
	ok := err == nil && resp.Status == http.StatusOK
	if r.Stream {
		ok = err == nil && okStream(resp)
	}
	rec := &ReadRec{Read: r, Status: resp.Status, Hash: sha256.Sum256(resp.Body), Before: before, After: after, Fresh: fresh}
	if !r.Stream {
		rec.Body = resp.Body
	}
	res := lg.res
	res.mu.Lock()
	defer res.mu.Unlock()
	res.Sent++
	res.Tally.Note(ok)
	res.Reads = append(res.Reads, rec)
	if !open || fresh {
		return resp, ok
	}
	switch {
	case r.Stream && ok:
		res.StreamFirst.AddDuration(resp.FirstFrame.Sub(due))
	case r.Stream:
		res.StreamFirst.AddFailure()
	case ok:
		res.Recommend.AddDuration(DueLatency(due, resp.Done))
		res.Service.AddDuration(resp.Done.Sub(sent))
	default:
		res.Recommend.AddFailure()
	}
	return resp, ok
}

// rate posts one rating and, for a participant, its fresh read.
func (lg *Loadgen) rate(r *Rating, due time.Time) {
	lg.writer.Lock()
	defer lg.writer.Unlock()
	lg.started.Add(1)
	sent := time.Now()
	resp, err := lg.c.Post("/v1/ratings", mustJSON(r), false)
	var ack struct {
		Applied bool `json:"applied"`
		Pending int  `json:"pending"`
	}
	ok := err == nil && resp.Status == http.StatusOK && json.Unmarshal(resp.Body, &ack) == nil && ack.Applied
	res := lg.res
	res.mu.Lock()
	res.Sent++
	res.Tally.Note(ok)
	if ok {
		lat := DueLatency(due, resp.Done)
		res.RatingAck.AddDuration(lat)
		res.Applied = append(res.Applied, r)
		res.AckMS = append(res.AckMS, float64(lat)/float64(time.Millisecond))
		res.Pending = append(res.Pending, float64(ack.Pending))
	} else {
		res.RatingAck.AddFailure()
	}
	res.mu.Unlock()
	if !ok {
		return
	}
	lg.acked.Add(1)
	if r.Fresh == nil {
		return
	}
	fr, fok := lg.read(r.Fresh, due, true, true)
	res.mu.Lock()
	if fok {
		res.Visible.AddDuration(fr.Done.Sub(sent))
	} else {
		res.Visible.AddFailure()
	}
	res.mu.Unlock()
}

// RunOpen plays the schedule: `clients` goroutines take events in due
// order, sleep until each is due and send it. A busy generator sends
// late, and the lateness is charged to the request.
func (lg *Loadgen) RunOpen(events []Event) {
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(events) {
					return
				}
				ev := events[i]
				due := start.Add(ev.Due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				late := Lateness(due, time.Now())
				lg.res.mu.Lock()
				lg.res.Late.AddDuration(late)
				lg.res.mu.Unlock()
				if ev.Read != nil {
					lg.read(ev.Read, due, true, false)
					continue
				}
				lg.rate(ev.Rating, due)
			}
		}()
	}
	wg.Wait()
}

// RunClosed runs `clients` closed-loop clients over the read cycle
// until d has passed; reads in flight at the deadline complete and
// count. The first client also sends each of the writer's ratings once
// it is due, before its next read, so ratings keep arriving while
// capacity is measured; ratings due after the deadline are not sent.
func (lg *Loadgen) RunClosed(reads []*Read, ratings []Event, d time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			pending := ratings
			if k != 0 {
				pending = nil
			}
			for time.Now().Before(deadline) {
				for len(pending) > 0 && time.Since(start) >= pending[0].Due {
					lg.rate(pending[0].Rating, start.Add(pending[0].Due))
					pending = pending[1:]
				}
				i := int(next.Add(1) - 1)
				sent := time.Now()
				resp, ok := lg.read(reads[i%len(reads)], sent, false, false)
				end := time.Since(start)
				lg.res.mu.Lock()
				if i >= len(lg.res.ClosedDone) {
					lg.res.ClosedDone = append(lg.res.ClosedDone, make([]time.Duration, i+1-len(lg.res.ClosedDone))...)
				}
				lg.res.ClosedDone[i] = end
				if ok {
					lg.res.ClosedOK++
					lg.res.ClosedLatency.AddDuration(resp.Done.Sub(sent))
				} else {
					lg.res.ClosedLatency.AddFailure()
				}
				lg.res.mu.Unlock()
			}
		}(k)
	}
	wg.Wait()
	lg.res.ClosedElapsed = time.Since(start)
}

// batchOK reports whether every entry of a batch answer succeeded.
func batchOK(body []byte, n int) bool {
	var out struct {
		Results []struct {
			Response json.RawMessage `json:"response"`
			Error    string          `json:"error"`
		} `json:"results"`
	}
	if json.Unmarshal(body, &out) != nil || len(out.Results) != n {
		return false
	}
	for _, r := range out.Results {
		if r.Error != "" || len(r.Response) == 0 {
			return false
		}
	}
	return true
}

// BatchRec is one answered paper-batch call.
type BatchRec struct {
	Batch *Batch
	Hash  [32]byte
	Body  []byte
}

// RunBatches runs one closed-loop client over the batch cycle, as the
// paper times each group on its own (the batch endpoint spreads a
// call's entries over the cores). It runs whole passes: once d has
// passed no new pass starts, so every run measures the same mix of
// small and large groups.
func (lg *Loadgen) RunBatches(batches []*Batch, d time.Duration) []*BatchRec {
	start := time.Now()
	var recs []*BatchRec
	for i := 0; i%len(batches) != 0 || time.Since(start) < d; i++ {
		b := batches[i%len(batches)]
		sent := time.Now()
		resp, err := lg.c.Post("/v1/recommend/batch", b.Body, false)
		ok := err == nil && resp.Status == http.StatusOK && batchOK(resp.Body, len(b.Entries))
		res := lg.res
		res.Sent++
		res.Tally.Note(ok)
		res.BatchCalls++
		if ok {
			res.Groups += len(b.Entries)
			res.BatchLatency.AddDuration(resp.Done.Sub(sent))
		} else {
			res.BatchLatency.AddFailure()
		}
		recs = append(recs, &BatchRec{Batch: b, Hash: sha256.Sum256(resp.Body), Body: resp.Body})
	}
	lg.res.ClosedElapsed = time.Since(start)
	return recs
}

// Warm sends one single-member read per participant through the
// stack, so every participant's view, neighborhood and connection is
// in place before measuring.
func Warm(c *Client, parts []dataset.UserID, items int) error {
	var next atomic.Int64
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(parts) {
					return
				}
				body := mustJSON(wireRequest{Group: []int{int(parts[i])}, K: topK, NumItems: items, Consensus: "AP"})
				resp, err := c.Post("/v1/recommend", body, false)
				if err == nil && resp.Status != http.StatusOK {
					err = fmt.Errorf("warm-up read for user %d: status %d", parts[i], resp.Status)
				}
				if err != nil {
					errs[k] = err
					return
				}
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
