package server

import (
	"testing"

	"repro/internal/store"
	"repro/internal/workload"
)

// TestExtractionStateCacheEvictsLeastRecentlyReleased pins the index-state
// cache's bound: a new pipeline arriving at a full cache is cached, evicting
// the state released longest ago, rather than being dropped (which left every
// pipeline after the first maxExtractionStates rebuilding from scratch).
func TestExtractionStateCacheEvictsLeastRecentlyReleased(t *testing.T) {
	s := newScheduler(nil, 1, 0, 0)
	defer s.close()
	id := func(i int) store.Key {
		return store.KeySpec{Kind: "exstate", Name: "kx-perfect", SeedBase: int64(i)}.Key()
	}
	release := func(i, indexed int) {
		s.releaseExtractionState(id(i), &workload.ExtractionState{Indexed: indexed})
	}
	cached := func(i int) int {
		st := s.claimExtractionState(id(i))
		if st.Indexed > 0 {
			s.releaseExtractionState(id(i), st)
		}
		return st.Indexed
	}

	for i := 1; i <= maxExtractionStates+1; i++ {
		release(i, 8*i)
	}
	if got := cached(maxExtractionStates + 1); got != 8*(maxExtractionStates+1) {
		t.Fatalf("state %d: cached Indexed=%d, want %d", maxExtractionStates+1, got, 8*(maxExtractionStates+1))
	}
	if got := cached(1); got != 0 {
		t.Fatalf("state 1 (least recently released) still cached with Indexed=%d", got)
	}
	if n := len(s.exstates); n != maxExtractionStates {
		t.Fatalf("cache holds %d states, want %d", n, maxExtractionStates)
	}

	// Claiming and releasing a state refreshes it: after touching state 2,
	// the next newcomer evicts state 3 instead.
	if got := cached(2); got != 16 {
		t.Fatalf("state 2: cached Indexed=%d, want 16", got)
	}
	release(maxExtractionStates+2, 8)
	if got := cached(2); got != 16 {
		t.Fatalf("recently released state 2 was evicted (Indexed=%d)", got)
	}
	if got := cached(3); got != 0 {
		t.Fatalf("state 3 should have been evicted, still cached with Indexed=%d", got)
	}

	// A smaller concurrent rebuild never replaces a larger cached state.
	release(2, 8)
	if got := cached(2); got != 16 {
		t.Fatalf("smaller release replaced the cached state: Indexed=%d, want 16", got)
	}
}
