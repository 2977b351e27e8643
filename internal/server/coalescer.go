// Package server is the serving layer in front of the recommendation
// engine: a request coalescer that buffers live single-group traffic
// into RecommendBatch windows, and an HTTP front end exposing it. The
// engine's shared candidate pools and sorted-list views pay off when
// many requests travel through one batch; the coalescer manufactures those
// batches from independent concurrent callers, trading a bounded
// latency budget (the window) for batch amortization. See DESIGN.md's
// "Serving layer" section.
package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// Dispatcher executes one coalesced window of requests and returns
// positionally aligned results — the contract of
// repro.(*World).RecommendBatch, which is the production dispatcher.
type Dispatcher func([]repro.Request) []repro.Result

// ErrClosed is returned by Submit after Close has begun draining.
var ErrClosed = errors.New("server: coalescer closed")

// ErrOverloaded is returned by Submit when the number of parked
// callers has reached the LimitPending bound — the load-shedding
// signal the HTTP layer maps to 429 with a Retry-After.
var ErrOverloaded = errors.New("server: too many pending requests")

// ErrDispatch marks a dispatcher that broke the positional-alignment
// contract (fewer results than requests). It is a server fault, not a
// client one; the HTTP layer maps it to a 500.
var ErrDispatch = errors.New("server: dispatcher result mismatch")

// Defaults for NewCoalescer's window and batch bound. 5ms is a latency
// budget invisible next to a cold recommendation (tens of ms) yet wide
// enough to capture a burst; 64 keeps a worst-case window near the
// Figure 6 sweep sizes the engine is benchmarked at.
const (
	DefaultWindow   = 5 * time.Millisecond
	DefaultMaxBatch = 64
)

// waiter is one caller parked in the open window. ch is buffered so
// the dispatch goroutine never blocks on a caller that gave up
// (context cancellation abandons the channel, not the request).
type waiter struct {
	req repro.Request
	ch  chan repro.Result
}

// CoalescerStats is a snapshot of the coalescer's counters. Windows is
// the number of Dispatcher invocations; the acceptance property of the
// whole subsystem is Windows < Requests under concurrent load.
type CoalescerStats struct {
	// Requests is the number of accepted Submit calls.
	Requests uint64 `json:"requests"`
	// Windows is the number of dispatched batches, split by what
	// closed them: the batch bound, the latency budget, or a drain.
	Windows     uint64 `json:"windows"`
	SizeCloses  uint64 `json:"size_closes"`
	TimerCloses uint64 `json:"timer_closes"`
	DrainCloses uint64 `json:"drain_closes"`
	// MaxWindowSize is the largest batch dispatched so far.
	MaxWindowSize int `json:"max_window_size"`
	// MeanWindowSize is Requests over Windows for dispatched requests.
	MeanWindowSize float64 `json:"mean_window_size"`
	// Pending is the size of the currently open window.
	Pending int `json:"pending"`
	// Parked counts callers still awaiting a result — the open window
	// plus in-flight dispatches. It is the load-shedding signal.
	Parked int `json:"parked"`
	// Shed counts Submits rejected with ErrOverloaded.
	Shed uint64 `json:"shed"`
}

// Coalescer buffers concurrent single-request traffic into dispatch
// windows. A window opens when a request arrives at an empty buffer
// and closes on the first of: the latency budget expiring, the buffer
// reaching the batch bound, or Close draining. Each closed window is
// dispatched on its own goroutine and every parked caller receives its
// positionally aligned result.
//
// A Coalescer is safe for any number of concurrent Submit calls.
type Coalescer struct {
	dispatch Dispatcher
	window   time.Duration
	maxBatch int
	// maxPending bounds parked callers (0 = unbounded); see
	// LimitPending.
	maxPending int

	mu      sync.Mutex
	pending []waiter
	// gen identifies the open window; a timer that fires after its
	// window was already cut (by size or drain) sees a newer gen and
	// does nothing.
	gen   uint64
	timer *time.Timer
	// deadline is when the open window's timer fires; a caller with a
	// tighter per-request budget pulls it earlier.
	deadline time.Time
	closed   bool
	// inflight tracks dispatch goroutines so Close can drain them.
	inflight sync.WaitGroup
	// parked counts callers awaiting results; decremented by dispatch
	// goroutines, hence atomic.
	parked atomic.Int64

	// Counters, guarded by mu (every transition already holds it).
	requests    uint64
	sizeCloses  uint64
	timerCloses uint64
	drainCloses uint64
	shed        uint64
	dispatched  uint64
	maxWindow   int
}

// NewCoalescer builds a coalescer over dispatch with the given latency
// budget and batch bound (defaults for non-positive values). maxBatch
// = 1 degenerates to per-request dispatch — the uncoalesced baseline
// the benchmarks compare against.
func NewCoalescer(dispatch Dispatcher, window time.Duration, maxBatch int) *Coalescer {
	if window <= 0 {
		window = DefaultWindow
	}
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	return &Coalescer{dispatch: dispatch, window: window, maxBatch: maxBatch}
}

// Window returns the latency budget.
func (c *Coalescer) Window() time.Duration { return c.window }

// MaxBatch returns the batch bound.
func (c *Coalescer) MaxBatch() int { return c.maxBatch }

// LimitPending bounds the number of parked callers (open window plus
// in-flight dispatches); Submits beyond the bound fail fast with
// ErrOverloaded instead of queueing unboundedly. n <= 0 removes the
// bound. Call before the coalescer starts serving traffic (it is not
// synchronized against concurrent Submits).
func (c *Coalescer) LimitPending(n int) { c.maxPending = n }

// MaxPending returns the parked-caller bound (0 = unbounded).
func (c *Coalescer) MaxPending() int { return c.maxPending }

// Submit parks req in the open window and returns its result once the
// window is dispatched. It returns ErrClosed if Close has begun,
// ErrOverloaded if the parked-caller bound is reached, or ctx's error
// if the caller gives up first — the request itself is still
// dispatched and its result discarded.
func (c *Coalescer) Submit(ctx context.Context, req repro.Request) (repro.Result, error) {
	return c.SubmitWithin(ctx, req, 0)
}

// SubmitWithin is Submit with a per-caller coalescing budget: when
// maxWait is positive and smaller than the remaining window, the open
// window's deadline is pulled forward so this caller waits at most
// maxWait before its window dispatches. maxWait is clamped to the
// configured window (a caller can trade batching for freshness, not
// extend another caller's delay); 0 or negative means the full window.
func (c *Coalescer) SubmitWithin(ctx context.Context, req repro.Request, maxWait time.Duration) (repro.Result, error) {
	// A caller that is already cancelled must not occupy a window
	// slot: its result would be discarded, but the dispatch (and any
	// LimitPending budget it consumed) would still happen.
	if err := ctx.Err(); err != nil {
		return repro.Result{}, err
	}
	w := waiter{req: req, ch: make(chan repro.Result, 1)}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return repro.Result{}, ErrClosed
	}
	if c.maxPending > 0 && int(c.parked.Load()) >= c.maxPending {
		c.shed++
		c.mu.Unlock()
		return repro.Result{}, ErrOverloaded
	}
	c.requests++
	c.parked.Add(1)
	c.pending = append(c.pending, w)
	if maxWait <= 0 || maxWait > c.window {
		maxWait = c.window
	}
	switch {
	case len(c.pending) >= c.maxBatch:
		c.sizeCloses++
		c.cutLocked()
	case len(c.pending) == 1:
		gen := c.gen
		c.deadline = time.Now().Add(maxWait)
		c.timer = time.AfterFunc(maxWait, func() { c.timerFire(gen) })
	default:
		// Joining an open window: honor this caller's tighter budget
		// by re-arming the window timer to the earlier deadline.
		if want := time.Now().Add(maxWait); c.timer != nil && want.Before(c.deadline) {
			c.timer.Stop()
			gen := c.gen
			c.deadline = want
			c.timer = time.AfterFunc(maxWait, func() { c.timerFire(gen) })
		}
	}
	c.mu.Unlock()

	select {
	case res := <-w.ch:
		return res, nil
	case <-ctx.Done():
		return repro.Result{}, ctx.Err()
	}
}

// timerFire closes the window the timer was armed for, unless that
// window was already cut.
func (c *Coalescer) timerFire(gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen || len(c.pending) == 0 {
		return // stale: the window was cut by size or drain
	}
	c.timerCloses++
	c.cutLocked()
}

// cutLocked dispatches the open window. Callers hold mu and have
// already attributed the close to a counter.
func (c *Coalescer) cutLocked() {
	batch := c.pending
	c.pending = nil
	c.gen++
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	if len(batch) == 0 {
		return
	}
	c.dispatched += uint64(len(batch))
	if len(batch) > c.maxWindow {
		c.maxWindow = len(batch)
	}
	c.inflight.Add(1)
	go c.run(batch)
}

// run executes one window and fans results back to the parked callers.
func (c *Coalescer) run(batch []waiter) {
	defer c.inflight.Done()
	reqs := make([]repro.Request, len(batch))
	for i, w := range batch {
		reqs[i] = w.req
	}
	results := c.dispatch(reqs)
	for i, w := range batch {
		if i < len(results) {
			w.ch <- results[i]
		} else {
			w.ch <- repro.Result{Err: fmt.Errorf("%w: %d results for %d requests", ErrDispatch, len(results), len(reqs))}
		}
		c.parked.Add(-1)
	}
}

// Close drains the coalescer: the open window is dispatched
// immediately, in-flight windows run to completion, and every parked
// caller receives its result. Subsequent Submit calls return
// ErrClosed. Close is idempotent.
func (c *Coalescer) Close() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		if len(c.pending) > 0 {
			c.drainCloses++
			c.cutLocked()
		}
	}
	c.mu.Unlock()
	c.inflight.Wait()
}

// Stats snapshots the coalescer's counters.
func (c *Coalescer) Stats() CoalescerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CoalescerStats{
		Requests:      c.requests,
		SizeCloses:    c.sizeCloses,
		TimerCloses:   c.timerCloses,
		DrainCloses:   c.drainCloses,
		MaxWindowSize: c.maxWindow,
		Pending:       len(c.pending),
		Parked:        int(c.parked.Load()),
		Shed:          c.shed,
	}
	st.Windows = st.SizeCloses + st.TimerCloses + st.DrainCloses
	if st.Windows > 0 {
		st.MeanWindowSize = float64(c.dispatched) / float64(st.Windows)
	}
	return st
}
