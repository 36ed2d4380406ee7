package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/epistemic"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// primeAll sends the set-up requests over conns concurrent connections and
// fails on the first non-200 answer.
func primeAll(c *cluster, reqs []request) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	next := make(chan request)
	for range conns() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range next {
				resp, err := c.client.Get(c.nodes[req.peer].url + req.path())
				if err == nil {
					_, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if err == nil && resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("HTTP %d", resp.StatusCode)
					}
				}
				if err != nil {
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("%s: %w", req.identity(), err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	for _, req := range reqs {
		next <- req
	}
	close(next)
	wg.Wait()
	return first
}

// layerMetrics computes the traced pass's per-layer numbers: Server-Timing
// stages and cache grades from every response, /v1/stats and /v1/fleet
// deltas, the /metrics gauges sampled during the window, the claim RPCs the
// transport wrapper timed, and replays of the window's own seeds through
// each layer's public functions.  Every metric is present on every
// workload; a layer that did no work reports 0.
func (p *pass) layerMetrics(c *cluster, cfg config, g gaugeSeries, claims []claimCall) map[string]metric {
	m := make(map[string]metric)
	set := func(name string, v float64, unit string, n int) { m[name] = metric{Value: v, Unit: unit, n: n} }
	res := p.d.results

	set("loadgen.lag_p99_ms", p.lagP99(), "ms", len(res))

	// Server stages and the wire, from each response's Server-Timing.
	stageNames := []string{"resolve", "claim", "compute", "remote", "persist", "assemble"}
	perStage := make(map[string][]float64)
	var wire []float64
	byGrade := map[string][]float64{}
	bytesBy := map[string][2]float64{}
	for _, r := range res {
		if !r.ok() {
			continue
		}
		t := parseTiming(r.timing)
		for _, s := range t.stages {
			perStage[s.name] = append(perStage[s.name], s.ms)
		}
		wire = append(wire, r.done.Sub(r.sent).Seconds()*1e3-t.total)
		byGrade[r.grade] = append(byGrade[r.grade], r.latency().Seconds()*1e3)
		b := bytesBy[r.req.format]
		bytesBy[r.req.format] = [2]float64{b[0] + float64(r.bytes), b[1] + 1}
	}
	for _, name := range stageNames {
		v := perStage[name]
		sum := 0.0
		for _, x := range v {
			sum += x
		}
		sort.Float64s(v)
		set("server."+name+"_ms_p50", nz(quantile(v, 0.5)), "ms", len(v))
		set("server."+name+"_s_sum", sum/1e3, "s", len(v))
	}
	sort.Float64s(wire)
	set("server.wire_ms_p50", nz(quantile(wire, 0.5)), "ms", len(wire))
	for _, f := range formats {
		b := bytesBy[f]
		set("wire.bytes_"+wireName(f), ratio(b[0], b[1]), "bytes", int(b[1]))
	}

	// Scheduler: grades from X-Cache, seed traffic from /v1/stats deltas,
	// queue depth and busy workers from /metrics samples.
	served := 0
	for _, v := range byGrade {
		served += len(v)
	}
	for _, grade := range []string{"hit", "partial", "miss"} {
		v := byGrade[grade]
		sort.Float64s(v)
		set("server."+grade+"_ratio", ratio(float64(len(v)), float64(served)), "ratio", served)
		set("server."+grade+"_p50_ms", nz(quantile(v, 0.5)), "ms", len(v))
	}
	a, b := p.after.sched, p.before.sched
	requested := float64(a.SeedsRequested - b.SeedsRequested)
	set("server.seeds_cached", float64(a.SeedsCached-b.SeedsCached), "count", 1)
	set("server.seeds_computed", float64(a.SeedsComputed-b.SeedsComputed), "count", 1)
	set("server.seeds_coalesced", float64(a.SeedsCoalesced-b.SeedsCoalesced), "count", 1)
	set("server.seeds_remote", float64(a.SeedsRemote-b.SeedsRemote), "count", 1)
	set("server.seed_reuse_ratio", ratio(float64(a.SeedsCached-b.SeedsCached+a.SeedsCoalesced-b.SeedsCoalesced), requested), "ratio", 1)
	set("server.tasks_per_batch", ratio(float64(a.BatchedTasks-b.BatchedTasks), float64(a.Batches-b.Batches)), "count", int(a.Batches-b.Batches))
	set("server.queue_depth_mean", mean(g.queue), "count", len(g.queue))
	set("server.indexed_runs_reused", float64(a.IndexedRunsReused-b.IndexedRunsReused), "count", 1)
	set("server.shed", float64(a.Shed-b.Shed), "count", 1)
	set("server.errors", float64(a.Errors-b.Errors), "count", 1)
	set("pool.utilization", mean(g.busy)/float64(runtime.GOMAXPROCS(0)*len(c.nodes)), "ratio", len(g.busy))
	if g.err != nil {
		p.problems = append(p.problems, "metrics scrape: "+g.err.Error())
	}

	// Store counters.
	sa, sb := p.after.store, p.before.store
	lookups := float64(sa.MemHits - sb.MemHits + sa.DiskHits - sb.DiskHits + sa.Misses - sb.Misses)
	set("store.mem_hits", float64(sa.MemHits-sb.MemHits), "count", 1)
	set("store.disk_hits", float64(sa.DiskHits-sb.DiskHits), "count", 1)
	set("store.misses", float64(sa.Misses-sb.Misses), "count", 1)
	set("store.evictions", float64(sa.Evictions-sb.Evictions), "count", 1)
	set("store.mem_hit_ratio", ratio(float64(sa.MemHits-sb.MemHits), lookups), "ratio", int(lookups))
	set("store.bytes_read_mb", float64(sa.BytesRead-sb.BytesRead)/(1<<20), "MiB", 1)
	set("store.bytes_written_mb", float64(sa.BytesWritten-sb.BytesWritten)/(1<<20), "MiB", 1)

	// Fleet: the claim RPCs the transport wrapper timed, plus /v1/fleet.
	var claimMs []float64
	claimSeeds, claimBytes := 0, 0
	for _, call := range claims {
		claimMs = append(claimMs, call.end.Sub(call.start).Seconds()*1e3)
		claimSeeds += call.seeds
		claimBytes += call.bytes
	}
	sort.Float64s(claimMs)
	fa, fb := p.after.fleet, p.before.fleet
	remote := float64(a.SeedsRemote - b.SeedsRemote)
	hedged := float64(fa.fallbackSeeds - fb.fallbackSeeds)
	set("fleet.claim_rpcs", float64(len(claims)), "count", len(claims))
	set("fleet.seeds_per_claim", ratio(float64(claimSeeds), float64(len(claims))), "count", len(claims))
	set("fleet.claim_ms_p50", nz(quantile(claimMs, 0.5)), "ms", len(claimMs))
	set("fleet.claim_ms_p99", nz(quantile(claimMs, 0.99)), "ms", len(claimMs))
	set("fleet.claim_bytes_mean", ratio(float64(claimBytes), float64(len(claims))), "bytes", len(claims))
	set("fleet.remote_seed_ratio", ratio(remote, requested), "ratio", 1)
	set("fleet.retries", float64(fa.retries-fb.retries), "count", 1)
	set("fleet.hedges", float64(fa.hedges-fb.hedges), "count", 1)
	set("fleet.fallback_seeds", hedged, "count", 1)
	set("fleet.useful_ratio", ratio(remote, remote+hedged), "ratio", 1)
	for _, call := range claims {
		p.spans.add("fleet.claim", call.start, call.end, -1, call.req)
	}

	// Request spans (client → http → server → stages), then the replays.
	servers := p.spans.requestSpans(res)
	linkClaims(p.spans, servers)
	p.replay(c, cfg, set)
	return m
}

// linkClaims parents each claim span on the server span of the request
// whose trace it carried.
func linkClaims(l *spanLog, servers map[int]int) {
	for i := range l.spans {
		s := &l.spans[i]
		if s.Name == "fleet.claim" {
			if srv, ok := servers[s.Req]; ok {
				s.Parent = srv
			}
		}
	}
}

// replayCap bounds the seeds replayed through the store and simulator.
const replayCap = 256

// replayItem is one (spec, seed) the window touched, with the corpus key
// and evaluator the daemon used for it.
type replayItem struct {
	spec workload.Spec
	eval workload.Evaluator
	seed int64
	key  store.Key
}

// replayItems collects the distinct seeds of the schedule prefix, in
// schedule order, up to replayCap.
func (p *pass) replayItems() []replayItem {
	seen := make(map[store.Key]bool)
	var out []replayItem
	for _, r := range p.prefix() {
		var spec workload.Spec
		var eval workload.Evaluator
		ns := "scenario:"
		if r.req.extract {
			spec = registry.MustExtraction(r.req.name).Extraction.Source
			eval = workload.UDCEvaluator
			ns = "extraction:"
		} else {
			sc := registry.MustScenario(r.req.name)
			spec, eval = sc.Spec, sc.Eval
		}
		for _, seed := range workload.Seeds(r.req.base, r.req.seeds) {
			key := store.SeedKeySpec(ns+r.req.name, "", seed).Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, replayItem{spec: spec, eval: eval, seed: seed, key: key})
			if len(out) == replayCap {
				return out
			}
		}
	}
	return out
}

// replay times each layer's public functions on the window's own seeds:
// the simulator and spec checks (workload.ExecuteWith on one reused engine,
// the scenario's evaluator), the store (GetMulti on the daemon's corpus,
// RunDecoder.DecodeSeedRecord with and without CompactClone,
// EncodeSeedRecord, PutMulti into a scratch store), and for extractions the
// pipeline stages (core.CheckUDC, epistemic.NewSystem/System.Add, the
// detector transform and the fd property checks) with the index state
// carried across a base's growing windows as the daemon carries it.
func (p *pass) replay(c *cluster, cfg config, set func(string, float64, string, int)) {
	items := p.replayItems()
	n := float64(len(items))
	l := p.spans

	// Simulator and checks.
	eng := sim.NewEngine()
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	var simDur, checkDur time.Duration
	var events, sent, dropped, dup int
	var allocated uint64
	for _, it := range items {
		metrics.Read(allocs)
		before := allocs[0].Value.Uint64()
		t0 := time.Now()
		res, err := workload.ExecuteWith(eng, it.spec, it.seed)
		t1 := time.Now()
		metrics.Read(allocs)
		allocated += allocs[0].Value.Uint64() - before
		if err != nil {
			p.problems = append(p.problems, fmt.Sprintf("sim replay of seed %d: %v", it.seed, err))
			return
		}
		it.eval(res.Run)
		t2 := time.Now()
		l.add("replay.sim", t0, t1, -1, -1)
		l.add("replay.check", t1, t2, -1, -1)
		simDur += t1.Sub(t0)
		checkDur += t2.Sub(t1)
		st := res.Stats
		events += st.MessagesSent + st.MessagesDelivered + st.DoEvents + st.InitEvents + st.SuspectEvents + st.CrashEvents
		sent += st.MessagesSent
		dropped += st.MessagesDropped
		dup += st.MessagesDuplicated
	}
	set("sim.run_us_per_seed", ratio(simDur.Seconds()*1e6, n), "us", len(items))
	set("sim.events_per_seed", ratio(float64(events), n), "count", len(items))
	set("sim.messages_sent_per_seed", ratio(float64(sent), n), "count", len(items))
	set("sim.messages_dropped_per_seed", ratio(float64(dropped), n), "count", len(items))
	set("sim.messages_duplicated_per_seed", ratio(float64(dup), n), "count", len(items))
	set("sim.alloc_bytes_per_seed", ratio(float64(allocated), n), "bytes", len(items))
	set("core.check_us_per_seed", ratio(checkDur.Seconds()*1e6, n), "us", len(items))
	p.selfcheck[fmt.Sprintf("sim.events_per_seed@%d", len(items))] = fmt.Sprintf("%.6f", ratio(float64(events), n))

	// Store: read every daemon's corpus for the window's keys.
	keys := make([]store.Key, len(items))
	for i, it := range items {
		keys[i] = it.key
	}
	payloads := make([][]byte, len(keys))
	t0 := time.Now()
	for _, nd := range c.nodes {
		for i, pl := range nd.srv.Store().GetMulti(keys) {
			if pl != nil {
				payloads[i] = pl
			}
		}
	}
	t1 := time.Now()
	l.add("replay.store.getmulti", t0, t1, -1, -1)
	set("store.getmulti_us_per_key", ratio(t1.Sub(t0).Seconds()*1e6, n*float64(len(c.nodes))), "us", len(keys))
	var found [][]byte
	var foundKeys []store.Key
	recBytes := 0
	for i, pl := range payloads {
		if pl != nil {
			found = append(found, pl)
			foundKeys = append(foundKeys, keys[i])
			recBytes += len(pl)
		}
	}
	nf := float64(len(found))
	set("store.record_bytes_mean", ratio(float64(recBytes), nf), "bytes", len(found))
	dec := store.NewRunDecoder()
	var decDur, cloneDur, encDur time.Duration
	for _, pl := range found {
		t0 := time.Now()
		rec, err := dec.DecodeSeedRecord(pl)
		t1 := time.Now()
		if err != nil {
			p.problems = append(p.problems, "decode replay: "+err.Error())
			return
		}
		if rec.Run != nil {
			rec.Run.CompactClone()
		}
		t2 := time.Now()
		owned, err := store.DecodeSeedRecord(pl)
		if err != nil {
			p.problems = append(p.problems, "decode replay: "+err.Error())
			return
		}
		t3 := time.Now()
		store.EncodeSeedRecord(owned)
		t4 := time.Now()
		decDur += t1.Sub(t0)
		cloneDur += t2.Sub(t0)
		encDur += t4.Sub(t3)
		l.add("replay.store.decode", t0, t1, -1, -1)
		l.add("replay.store.encode", t3, t4, -1, -1)
	}
	set("store.decode_us_per_seed", ratio(decDur.Seconds()*1e6, nf), "us", len(found))
	set("store.decode_clone_us_per_seed", ratio(cloneDur.Seconds()*1e6, nf), "us", len(found))
	set("store.encode_us_per_seed", ratio(encDur.Seconds()*1e6, nf), "us", len(found))
	putUs := 0.0
	if dir, err := tempDir(filepath.Join(cfg.root, "run"), "putmulti-"); err == nil {
		if st, err := store.Open(dir, store.Options{}); err == nil {
			t0 := time.Now()
			st.PutMulti(foundKeys, found)
			t1 := time.Now()
			l.add("replay.store.putmulti", t0, t1, -1, -1)
			putUs = ratio(t1.Sub(t0).Seconds()*1e6, nf)
		}
		os.RemoveAll(dir)
	}
	set("store.putmulti_us_per_key", putUs, "us", len(found))

	p.replayExtractions(set)
}

// replayExtractions replays extract-grow's first bases window by window
// (zeros elsewhere).
func (p *pass) replayExtractions(set func(string, float64, string, int)) {
	var filter, index, transform, check time.Duration
	points, classes, kept, runs, windows := 0, 0, 0, 0, 0
	l := p.spans
	type state struct {
		sys  *epistemic.System
		runs int
	}
	states := make(map[string]*state)
	eng := sim.NewEngine()
	for _, r := range p.prefix() {
		if !r.req.extract {
			continue
		}
		ext := registry.MustExtraction(r.req.name).Extraction
		id := fmt.Sprintf("%s/%d", r.req.name, r.req.base)
		st := states[id]
		if st == nil {
			st = &state{}
			states[id] = st
		}
		if r.req.seeds <= st.runs {
			continue // a re-read: the daemon serves the stored record
		}
		seeds := workload.Seeds(r.req.base, r.req.seeds)[st.runs:]
		delta := make(model.System, 0, len(seeds))
		for _, seed := range seeds {
			res, err := workload.ExecuteWith(eng, ext.Source, seed)
			if err != nil {
				p.problems = append(p.problems, "extraction replay: "+err.Error())
				return
			}
			delta = append(delta, res.Run)
		}
		t0 := time.Now()
		var keep model.System
		for _, run := range delta {
			if len(core.CheckUDC(run)) == 0 {
				keep = append(keep, run)
			}
		}
		t1 := time.Now()
		if st.sys == nil {
			st.sys = epistemic.NewSystem(keep)
		} else {
			st.sys.Add(keep)
		}
		st.runs = r.req.seeds
		t2 := time.Now()
		var simulated model.System
		if ext.Mode == workload.ExtractPerfect {
			simulated = core.Transformer{}.SimulatePerfectDetector(st.sys)
		} else {
			simulated = core.Transformer{}.SimulateTUsefulDetector(st.sys)
		}
		t3 := time.Now()
		for _, run := range simulated {
			if ext.Mode == workload.ExtractPerfect {
				fd.CheckPerfect(run)
			} else {
				fd.CheckGeneralizedStrongAccuracy(run)
				fd.CheckTUseful(run, ext.T)
			}
		}
		t4 := time.Now()
		for _, s := range []struct {
			name   string
			t0, t1 time.Time
		}{{"replay.extract.filter", t0, t1}, {"replay.extract.index", t1, t2}, {"replay.extract.transform", t2, t3}, {"replay.extract.check", t3, t4}} {
			l.add(s.name, s.t0, s.t1, -1, r.idx)
		}
		filter += t1.Sub(t0)
		index += t2.Sub(t1)
		transform += t3.Sub(t2)
		check += t4.Sub(t3)
		stats := st.sys.Stats()
		points += stats.Points
		classes += stats.Classes
		kept += stats.Runs
		runs += r.req.seeds
		windows++
	}
	w := float64(windows)
	set("extract.filter_ms", ratio(filter.Seconds()*1e3, w), "ms", windows)
	set("extract.index_ms", ratio(index.Seconds()*1e3, w), "ms", windows)
	set("extract.transform_ms", ratio(transform.Seconds()*1e3, w), "ms", windows)
	set("extract.check_ms", ratio(check.Seconds()*1e3, w), "ms", windows)
	set("extract.index_points", ratio(float64(points), w), "count", windows)
	set("extract.index_classes", ratio(float64(classes), w), "count", windows)
	set("extract.kept_ratio", ratio(float64(kept), float64(runs)), "ratio", windows)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// nz maps the NaN of an empty sample to 0.
func nz(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}
