package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// flight is a table of in-flight computations keyed by corpus key.  The first
// request to claim a key owns its computation; concurrent requests for the
// same key join the owner's call instead of computing it again.  The scheduler
// keeps two: per-seed simulations and whole extraction pipelines.  The zero
// value is ready to use.
type flight[V any] struct {
	mu    sync.Mutex
	calls map[store.Key]*flightCall[V]
}

// flightCall is one claimed computation.  owner is the claiming request's
// trace ID (zero when untraced), fixed before the call is shared, so joiners
// link their traces to it without synchronisation; val and err are written
// once, by publish, before done closes.
type flightCall[V any] struct {
	done  chan struct{}
	owner obs.TraceID
	val   V
	err   error
}

// claim returns the key's in-flight call for the caller to join, or registers
// a new call owned by owner and reports owned.  An owned call must be
// published exactly once.
func (f *flight[V]) claim(key store.Key, owner obs.TraceID) (c *flightCall[V], owned bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.calls[key]; ok {
		return c, false
	}
	if f.calls == nil {
		f.calls = make(map[store.Key]*flightCall[V])
	}
	c = &flightCall[V]{done: make(chan struct{}), owner: owner}
	f.calls[key] = c
	return c, true
}

// publish completes an owned call with its value or error.  The entry is
// deregistered before done closes, so a joiner that re-claims after an
// owner-local failure finds the key free and becomes an owner itself.
func (f *flight[V]) publish(key store.Key, c *flightCall[V], v V, err error) {
	c.val, c.err = v, err
	f.mu.Lock()
	delete(f.calls, key)
	f.mu.Unlock()
	close(c.done)
}

// len returns how many keys are claimed and not yet published.
func (f *flight[V]) len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}

// maxClaimPasses bounds a joiner's claim/join passes: the first pass plus
// re-claims of keys whose joined owner failed with an owner-local error.
const maxClaimPasses = 3

// wait is the join rule both tables share.  It blocks until the owner
// publishes or ctx ends (the owner's computation is unaffected by a joiner
// leaving).  An owner-local failure — the owner's submit was shed, or its
// client went away — says nothing about the joiner, so wait asks the joiner
// to re-claim the key (retry) on passes before maxClaimPasses, and re-tags
// the failure with coalesceUpstream on the last one.  Any other error is the
// computation's own and is returned as published.
func (c *flightCall[V]) wait(ctx context.Context, pass int) (v V, retry bool, err error) {
	select {
	case <-c.done:
	case <-ctx.Done():
		return v, false, abandoned(ctx)
	}
	if c.err != nil && ownerLocal(c.err) {
		if pass < maxClaimPasses {
			return v, true, nil
		}
		return v, false, coalesceUpstream(c.err)
	}
	return c.val, false, c.err
}

// ownerLocal reports whether a failed computation's error is local to the
// request that owned the claim rather than to the computation itself: an
// admission shed (the owner's submit drew the 429) or an abandonment (the
// owner's client went away).
func ownerLocal(err error) bool {
	switch statusOf(err) {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return true
	}
	return false
}

// coalesceUpstream re-tags an owner-local failure that outlived a joiner's
// re-claim budget: the joiner is answered with a retryable 503 — retryable
// because the work is computable, 503 because the failure happened upstream
// — instead of inheriting a 429 or abandonment status its own client never
// earned.
func coalesceUpstream(err error) error {
	return &httpError{
		status:     http.StatusServiceUnavailable,
		retryAfter: time.Second,
		err:        fmt.Errorf("server: coalesced seed computation failed upstream: %w", err),
	}
}
