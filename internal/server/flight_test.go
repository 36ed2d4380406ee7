package server

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// TestFlightStress drives seeded random interleavings of the flight-table
// protocol across goroutines — claim, join, publish a value, fail with an
// owner-local or a real error, and cancel a request — and checks the
// invariants the scheduler relies on: at most one computation per key at a
// time (a claim pass has one owner), every claim is published exactly once,
// and joiners never surface an owner-local error.
func TestFlightStress(t *testing.T) {
	const keys, workers, requests = 4, 8, 300
	shed := overloaded(errors.New("owner: compute queue full"), time.Second)
	broken := errors.New("owner: engine failed")
	for seed := int64(1); seed <= 4; seed++ {
		var f flight[int]
		var computing [keys]atomic.Int32
		var claims, publishes, joins atomic.Int64

		// request is one request for key k under the resolver's claim/join
		// passes; an owner fails at random, and publishes its own
		// abandonment when its context was cancelled.
		request := func(rng *rand.Rand, k int, ctx context.Context) {
			key := store.Key{byte(k)}
			for pass := 1; ; pass++ {
				c, owned := f.claim(key, obs.TraceID{})
				if owned {
					claims.Add(1)
					if n := computing[k].Add(1); n != 1 {
						t.Errorf("key %d: %d concurrent computations", k, n)
					}
					runtime.Gosched()
					var err error
					switch {
					case ctx.Err() != nil:
						err = abandoned(ctx)
					case rng.Intn(4) == 0:
						err = shed
					case rng.Intn(4) == 0:
						err = broken
					}
					computing[k].Add(-1)
					f.publish(key, c, 10*k, err)
					publishes.Add(1)
					return
				}
				joins.Add(1)
				v, retry, err := c.wait(ctx, pass)
				if retry {
					continue
				}
				if statusOf(err) == http.StatusTooManyRequests {
					t.Errorf("key %d: joiner surfaced a shed: %v", k, err)
				}
				select {
				case <-c.done:
					// A joiner's own abandonment is a fresh error; the owner's
					// published one must never come back unwrapped.
					if err != nil && err == c.err && ownerLocal(err) {
						t.Errorf("key %d: joiner surfaced the owner's error: %v", k, err)
					}
				default:
				}
				if err == nil && v != 10*k {
					t.Errorf("key %d: joined value %d, want %d", k, v, 10*k)
				}
				return
			}
		}

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(w)))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < requests; i++ {
					ctx, cancel := context.WithCancel(context.Background())
					if rng.Intn(5) == 0 {
						cancel()
					}
					request(rng, rng.Intn(keys), ctx)
					cancel()
				}
			}()
		}
		wg.Wait()
		if c, p := claims.Load(), publishes.Load(); c != p {
			t.Errorf("seed %d: %d claims, %d publications", seed, c, p)
		}
		if n := f.len(); n != 0 {
			t.Errorf("seed %d: %d keys left claimed", seed, n)
		}
		if joins.Load() == 0 {
			t.Errorf("seed %d: no request joined another's claim", seed)
		}
	}
}
