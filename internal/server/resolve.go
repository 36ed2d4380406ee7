package server

import (
	"context"
	"strings"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/workload"
)

// seedSource is what a seed window resolves against: the namespaced catalog
// name ("scenario:..." / "extraction:...") keying its per-seed records, the
// adversary override, and the spec and evaluator that simulate a missing
// seed.  eval is nil exactly for extraction sources, which consume each
// seed's recorded run instead of a score.
type seedSource struct {
	name      string
	adversary string
	spec      workload.Spec
	eval      workload.Evaluator
}

// seedResult is one resolved seed as the seed flight table publishes it: the
// outcome and, for extraction sources, the recorded run.
type seedResult struct {
	outcome workload.RunOutcome
	run     *model.Run
}

// resolution is a resolved seed window: outcomes (and, for extraction
// sources, recorded runs) in seed order, plus how each seed was obtained.
type resolution struct {
	outcomes []workload.RunOutcome
	runs     model.System
	counts   obs.SeedCounts
}

// status classifies the resolution for the X-Cache header.  Remote seeds,
// like computed ones, grade as non-cached.
func (r resolution) status() CacheStatus {
	switch {
	case r.counts.Cached == len(r.outcomes):
		return CacheHit
	case r.counts.Cached > 0:
		return CachePartial
	default:
		return CacheMiss
	}
}

// resolveSeeds is the seed-granular heart of the scheduler.  It splits the
// window into (cached ∪ in-flight ∪ missing): cached seeds decode from
// per-seed corpus records, in-flight seeds join concurrent requests'
// computations, and missing seeds — claimed in the seed flight table so no
// two requests compute the same seed — are simulated in one dispatcher round
// and written back as per-seed records.  Sweeps consume outcomes alone, so
// their partial-hit path materialises no run at all.
//
// tr (nil-safe) accumulates the stage timings: corpus reads under "resolve",
// flight-table claims under "claim", fleet waits under "compute", per-seed
// record writes under "persist" and peer claims under "remote".  A non-nil
// emit observes every resolved outcome as it becomes available — cached
// seeds during the corpus read, computed seeds when their fleet round lands,
// joined seeds as their owners publish them — in arrival order, on the
// request's own goroutine; it is how streamed responses flush progressively.
// ctx bounds the computation: an expired context sheds unclaimed work and
// publishes this request's claims as abandoned, which joiners re-claim.
//
// A non-nil fc resolves claimed seeds whose corpus shard a remote peer owns
// by claim RPCs, overlapping the local round; failed, suspect or slow peers
// degrade to local recompute (see fleet.go), so the resolution is identical
// either way.  Only sweeps pass one: claims must not recurse across the
// fleet, and extraction source runs are too heavy to ship.
func (s *scheduler) resolveSeeds(ctx context.Context, src seedSource, seeds []int64, fc *fleetCoordinator, tr *obs.Trace, emit func(workload.RunOutcome)) (resolution, error) {
	n := len(seeds)
	r := &resolver{
		s: s, ctx: ctx, src: src, seeds: seeds, fc: fc, tr: tr, emit: emit,
		keys:     make([]store.Key, n),
		resolved: make([]bool, n),
		calls:    make([]*flightCall[seedResult], n),
		res:      resolution{outcomes: make([]workload.RunOutcome, n), counts: obs.SeedCounts{Requested: n}},
		dec:      store.Decoders.Get(),
	}
	defer store.Decoders.Put(r.dec)
	if src.eval == nil {
		r.res.runs = make(model.System, n)
	}
	for i, seed := range seeds {
		r.keys[i] = store.SeedKeySpec(src.name, src.adversary, seed).Key()
	}

	r.readCorpus()
	// The passes exist for the joiners: a joined owner can fail with an
	// error local to it (see flightCall.wait), leaving those seeds unresolved
	// for the next pass to re-claim.  This request's own failures end it.
	for pass := 1; ; pass++ {
		owned, joins, ok := r.claim()
		if !ok {
			break
		}
		r.compute(owned)
		if !r.join(joins, pass) {
			break
		}
	}
	if r.err != nil {
		return resolution{}, r.err
	}
	s.account(src, seeds, r.res.counts, tr)
	return r.res, nil
}

// resolver is one resolveSeeds call.  Its stages run in order on the
// request's goroutine, and each writes a resolved seed straight into its
// window slot.
type resolver struct {
	s     *scheduler
	ctx   context.Context
	src   seedSource
	seeds []int64
	keys  []store.Key
	fc    *fleetCoordinator
	tr    *obs.Trace
	emit  func(workload.RunOutcome)
	dec   *store.RunDecoder

	res      resolution
	resolved []bool
	// calls holds, by window index, the flight calls this pass owns and has
	// not yet published; unpublished counts them.
	calls       []*flightCall[seedResult]
	unpublished int
	// err is the resolution's first failure; once set, owned seeds publish it
	// and joins stop waiting.
	err error
}

// join is one joined flight call and the window index it resolves.
type join struct {
	i int
	c *flightCall[seedResult]
}

// fill writes a resolved seed into its window slot and streams it.
func (r *resolver) fill(i int, v seedResult) {
	r.res.outcomes[i] = v.outcome
	if r.res.runs != nil {
		r.res.runs[i] = v.run
	}
	r.resolved[i] = true
	if r.emit != nil {
		r.emit(v.outcome)
	}
}

// decode reads window index i's corpus record, reporting it unusable when it
// does not decode (an incompatible record under a colliding key), names
// another seed, or is unscored where the source scores.  The record may be a
// transient view of the pooled decoder's buffers, so a run the resolution
// keeps is compacted into owned storage here.
func (r *resolver) decode(i int, payload []byte) (seedResult, bool) {
	rec, err := r.dec.DecodeSeedRecord(payload)
	if err != nil || rec.Seed != r.seeds[i] || (r.src.eval != nil && !rec.Scored) {
		return seedResult{}, false
	}
	v := seedResult{outcome: rec.Outcome()}
	if r.src.eval == nil {
		v.run = rec.Run.CompactClone()
	}
	return v, true
}

// readCorpus fills every slot whose per-seed record is in the corpus.
func (r *resolver) readCorpus() {
	span := r.tr.Span("resolve")
	defer span.End()
	for i, payload := range r.s.store.GetMulti(r.keys) {
		if payload == nil {
			continue
		}
		if v, ok := r.decode(i, payload); ok {
			r.fill(i, v)
			r.res.counts.Cached++
		}
	}
}

// claim claims every unresolved seed in the seed flight table.  It returns
// the window indices this request now owns and must compute, and the calls
// it joined; ok is false when nothing was left to claim.
func (r *resolver) claim() (owned []int, joins []join, ok bool) {
	span := r.tr.Span("claim")
	defer span.End()
	owner := r.tr.TraceIDOrZero()
	for i := range r.seeds {
		if r.resolved[i] {
			continue
		}
		c, own := r.s.seeds.claim(r.keys[i], owner)
		if !own {
			joins = append(joins, join{i: i, c: c})
			continue
		}
		r.calls[i] = c
		r.unpublished++
		owned = append(owned, i)
	}
	if len(owned) == 0 && len(joins) == 0 {
		return nil, nil, false
	}
	// An identical seed may have been computed and stored between the corpus
	// read and the claim; it was stored before its call was published, so
	// one uncounted probe per claimed seed closes the race and keeps
	// overlapping requests at exactly one computation per seed.
	missing := owned[:0]
	for _, i := range owned {
		if payload, hit := r.s.store.Probe(r.keys[i]); hit {
			if v, usable := r.decode(i, payload); usable {
				r.publish(i, v, nil)
				r.res.counts.Cached++
				continue
			}
		}
		missing = append(missing, i)
	}
	return missing, joins, true
}

// publish settles window index i, which this pass owns: a nil err fills the
// slot, and either way the flight call is published to any joiners.  It
// reports false when i was already published — a hedge and a late peer
// answer can both deliver the same seed.
func (r *resolver) publish(i int, v seedResult, err error) bool {
	c := r.calls[i]
	if c == nil {
		return false
	}
	r.calls[i] = nil
	r.unpublished--
	if err == nil {
		r.fill(i, v)
	}
	r.s.seeds.publish(r.keys[i], c, v, err)
	return true
}

// open returns the indices in idxs not yet published.
func (r *resolver) open(idxs []int) []int {
	var open []int
	for _, i := range idxs {
		if r.calls[i] != nil {
			open = append(open, i)
		}
	}
	return open
}

// compute resolves the seeds this pass owns: remote-owned ones by their
// peers' claim RPCs, launched first so they overlap one local dispatcher
// round for the rest.  Every owned seed is published, with its outcome or
// the failure, before compute returns.
func (r *resolver) compute(owned []int) {
	local, remote := owned, map[string][]int(nil)
	if r.fc != nil {
		local, remote = r.fc.partition(r.keys, owned)
	}
	if len(remote) == 0 {
		r.computeLocal(local)
		return
	}
	results := r.claimRemote(remote)
	r.computeLocal(local)
	r.collectRemote(results, remote)
}

// computeLocal simulates idxs in one dispatcher round, persists their
// per-seed records and publishes them; it serves the local partition, a
// failed peer's fallback and the hedge alike.  Each record is encoded by the
// worker that simulated its seed, so the persist stage is only the corpus
// write.  Once the resolution has failed, or when the round fails, it
// publishes the failure instead.
func (r *resolver) computeLocal(idxs []int) {
	if len(idxs) == 0 {
		return
	}
	var job *fleetJob
	if r.err == nil {
		seeds := make([]int64, len(idxs))
		for j, i := range idxs {
			seeds[j] = r.seeds[i]
		}
		scored := r.src.eval != nil
		job = &fleetJob{
			runs: &workload.Task{Spec: r.src.spec, Seeds: seeds, Eval: r.src.eval, OnSeed: store.SeedRecorder(scored, !scored)},
			done: make(chan struct{}),
		}
		span := r.tr.Span("compute")
		r.err = r.s.submit(r.ctx, job)
		span.End()
	}
	if r.err != nil {
		for _, i := range idxs {
			r.publish(i, seedResult{}, r.err)
		}
		return
	}
	span := r.tr.Span("persist")
	keys := make([]store.Key, len(idxs))
	payloads := make([][]byte, len(idxs))
	for j, i := range idxs {
		keys[j], payloads[j] = r.keys[i], job.seedRuns[j].Record
	}
	if failed, _ := r.s.store.PutMulti(keys, payloads); failed > 0 {
		r.s.count(func(st *SchedulerStats) { st.PutErrors += uint64(failed) })
	}
	span.End()
	for j, i := range idxs {
		sr := job.seedRuns[j]
		if r.publish(i, seedResult{outcome: sr.Outcome, run: sr.Run}, nil) {
			r.res.counts.Computed++
		}
	}
}

// remoteResult is one peer's answer to the claim RPC for window indices idxs.
type remoteResult struct {
	peer     string
	idxs     []int
	outcomes []workload.RunOutcome
	err      error
}

// claimRemote launches one claim RPC per peer group.  The goroutines touch
// none of the resolver's state — they speak to the transport and deliver on
// a channel buffered for every group, so a peer answering after the request
// moved on is dropped — and all publication happens on the request goroutine
// (tr and emit are not concurrency-safe).
func (r *resolver) claimRemote(groups map[string][]int) <-chan remoteResult {
	results := make(chan remoteResult, len(groups))
	ctx, fc, adversary := r.ctx, r.fc, r.src.adversary
	traceID := r.tr.TraceIDOrZero()
	scenario := strings.TrimPrefix(r.src.name, scenarioNamespace)
	for peer, idxs := range groups {
		seeds := make([]int64, len(idxs))
		for j, i := range idxs {
			seeds[j] = r.seeds[i]
		}
		go func() {
			outs, err := fc.claim(ctx, peer, traceID, scenario, adversary, seeds)
			results <- remoteResult{peer: peer, idxs: idxs, outcomes: outs, err: err}
		}()
	}
	return results
}

// collectRemote settles the remote-owned seeds.  It runs until every owned
// seed is published or the last group reports; claims honour ctx, so after
// an error or an expired context they return promptly.  A failed group is
// recomputed locally; once HedgeDelay elapses every still-open seed is
// hedged with a local recompute, and the loop stops waiting on the slow peer
// — outcomes are deterministic, so either side's answer is the same bytes.
func (r *resolver) collectRemote(results <-chan remoteResult, groups map[string][]int) {
	var hedge <-chan time.Time
	if d := r.fc.cfg.HedgeDelay; d > 0 && r.err == nil {
		timer := time.NewTimer(d)
		defer timer.Stop()
		hedge = timer.C
	}
	span := r.tr.Span("remote")
	defer span.End()
	done := r.ctx.Done()
	for pending := len(groups); pending > 0 && r.unpublished > 0; {
		select {
		case res := <-results:
			pending--
			if res.err == nil {
				for j, i := range res.idxs {
					if r.publish(i, seedResult{outcome: res.outcomes[j]}, nil) {
						r.res.counts.Remote++
					}
				}
			} else if open := r.open(res.idxs); len(open) > 0 {
				r.fc.health.NoteFallback(res.peer, len(open))
				r.computeLocal(open)
			}
		case <-hedge:
			hedge = nil
			var open []int
			for peer, idxs := range groups {
				if g := r.open(idxs); len(g) > 0 {
					r.fc.health.NoteHedge(peer)
					open = append(open, g...)
				}
			}
			r.computeLocal(open)
		case <-done:
			done = nil
			if r.err == nil {
				r.err = abandoned(r.ctx)
			}
		}
	}
}

// join collects the seeds concurrent requests computed for this one.  The
// wait is compute time: someone's fleet round is producing these seeds.  It
// reports whether another pass must re-claim seeds whose owners failed with
// an owner-local error.
func (r *resolver) join(joins []join, pass int) (again bool) {
	span := r.tr.Span("compute")
	defer span.End()
	for _, j := range joins {
		if r.err != nil {
			return false
		}
		v, retry, err := j.c.wait(r.ctx, pass)
		switch {
		case err != nil:
			r.err = err
		case retry:
			again = true
		default:
			r.fill(j.i, v)
			r.res.counts.Coalesced++
			// Span link: this request consumed a seed computed under the
			// owner's trace.
			r.tr.Link(j.c.owner)
		}
	}
	return again && r.err == nil
}
