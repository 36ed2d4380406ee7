package main

import (
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// pass is one set-up plus one timed window of a workload.
type pass struct {
	d         *driver
	setups    []float64 // seconds, one per set-up
	before    counters
	after     counters
	rss       []rssSample
	problems  []string
	selfcheck map[string]string

	// traced pass only
	spans  *spanLog
	layers map[string]metric
}

// setupReps is how many times a pass sets up; setup_s is their median.
// Priming overlap-read's corpus takes seconds, the others' warm-up tens of
// milliseconds.  Half the set-ups run after the window, so the median spans
// the run's time rather than its first moments; only the last set-up before
// the window is kept.
func setupReps(wl *workloadDef) int {
	if wl.name == "overlap-read" {
		return 3
	}
	return 9
}

// setUp boots the workload's daemons in a fresh directory and primes their
// corpus, recording how long that took.
func (p *pass) setUp(cfg config, wl *workloadDef, claims *claimRecorder) (*cluster, string, error) {
	dir, err := tempDir(filepath.Join(cfg.root, "run"), wl.name+"-")
	if err != nil {
		return nil, "", err
	}
	start := time.Now()
	c, err := bootCluster(dir, wl.nodes, conns(), claims)
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	if err := wl.prime(c, cfg.seed, cfg.scale); err != nil {
		c.close()
		os.RemoveAll(dir)
		return nil, "", fmt.Errorf("prime: %w", err)
	}
	p.setups = append(p.setups, time.Since(start).Seconds())
	return c, dir, nil
}

// discardSetUps sets up and tears down n more times.
func (p *pass) discardSetUps(cfg config, wl *workloadDef, n int) error {
	for range n {
		c, dir, err := p.setUp(cfg, wl, nil)
		if err != nil {
			return err
		}
		c.close()
		os.RemoveAll(dir)
	}
	return nil
}

// runPass sets the workload up, drives one window and checks it.
func runPass(cfg config, wl *workloadDef, traced bool) (*pass, error) {
	p := &pass{}
	var claims *claimRecorder
	if traced && wl.nodes > 1 {
		claims = &claimRecorder{}
	}
	after := setupReps(wl) / 2
	if err := p.discardSetUps(cfg, wl, setupReps(wl)-after-1); err != nil {
		return nil, err
	}
	c, dir, err := p.setUp(cfg, wl, claims)
	if err != nil {
		return nil, err
	}
	released := false
	release := func() {
		if !released {
			released = true
			c.close()
			os.RemoveAll(dir)
		}
	}
	defer release()
	// Flush the primed corpus now, so its write-back does not land in the
	// timed window.
	if err := syncTree(dir); err != nil {
		return nil, err
	}
	if claims != nil {
		claims.reset()
	}

	if p.before, err = c.snapshot(); err != nil {
		return nil, err
	}
	if traced {
		p.spans = &spanLog{}
	}
	p.d = newDriver(c, wl, cfg.seed, cfg.scale, conns(), time.Duration(cfg.seconds*float64(time.Second)), p.spans)
	runtime.GC()
	var gauges *gaugeSampler
	if traced {
		gauges = startGauges(c)
		p.spans.t0 = time.Now()
	}
	rss := startRSS()
	p.d.run()
	p.rss = rss.finish()
	var g gaugeSeries
	if gauges != nil {
		g = gauges.finish()
	}
	if p.after, err = c.snapshot(); err != nil {
		return nil, err
	}

	if err := c.reconcile(); err != nil {
		p.problems = append(p.problems, "stats: "+err.Error())
	}
	if p.d.checkErr != nil {
		p.problems = append(p.problems, "checkpoint: "+p.d.checkErr.Error())
	}
	checked, classes, err := verifyRetained(p.d.results)
	if err != nil {
		p.problems = append(p.problems, "verify: "+err.Error())
	}
	p.selfcheck = p.exactCounts(wl)
	fmt.Fprintf(os.Stderr, "pass (traced=%v): %d requests, %d verified against direct computation, classes %v\n",
		traced, len(p.d.results), checked, classes)
	if traced {
		var claimCalls []claimCall
		if claims != nil {
			claimCalls = claims.snapshot()
		}
		p.layers = p.layerMetrics(c, cfg, g, claimCalls)
	}
	for _, r := range p.d.results {
		if !r.ok() && len(p.problems) < 20 {
			p.problems = append(p.problems, fmt.Sprintf("request %d %s (%s): %s", r.idx, r.req.identity(), r.req.format, r.err))
		}
	}
	release()
	runtime.GC()
	if err := p.discardSetUps(cfg, wl, after); err != nil {
		return nil, err
	}
	return p, nil
}

// syncTree fsyncs every regular file under dir.
func syncTree(dir string) error {
	return filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return f.Sync()
	})
}

func (p *pass) failed() int {
	n := 0
	for _, r := range p.d.results {
		if !r.ok() {
			n++
		}
	}
	return n
}

// lagP99 is the generator's p99 lateness in milliseconds (0 in a closed
// loop, where a client sends when it is ready).
func (p *pass) lagP99() float64 {
	var lags []float64
	for _, r := range p.d.results {
		lags = append(lags, r.lag.Seconds()*1e3)
	}
	sort.Float64s(lags)
	if len(lags) == 0 {
		return 0
	}
	return quantile(lags, 0.99)
}

// subWindows is how many equal slices the timed window is cut into.  The
// latency percentiles, the closed loops' throughput and the peak resident
// set are computed per slice and reported as the median across slices, so
// a few seconds of interference from outside the benchmark move them less
// than they would move a whole-window figure.
const subWindows = 8

// slice is one time slice of the window: the successful requests sent in it.
type slice struct {
	lat   []float64 // ms, sorted
	busy  float64   // summed latency, seconds
	seeds int
}

// slices cuts the window into k slices by send time.  Requests sent after
// the window (a closed loop's self-check prefix, an open loop's backlog)
// fall in none.
func (p *pass) slices(k int) []slice {
	out := make([]slice, k)
	span := p.d.duration / time.Duration(k)
	for _, r := range p.d.results {
		if i := int(r.intended.Sub(p.d.t0) / span); r.ok() && i < k {
			out[i].lat = append(out[i].lat, r.latency().Seconds()*1e3)
			out[i].busy += r.latency().Seconds()
			out[i].seeds += r.req.seeds
		}
	}
	for _, sl := range out {
		sort.Float64s(sl.lat)
	}
	return out
}

// endToEnd computes the user-visible metrics of the pass.
func (p *pass) endToEnd(wl *workloadDef) map[string]metric {
	var lat []float64
	sloOK, seeds := 0, 0
	for _, r := range p.d.results {
		if r.ok() {
			lat = append(lat, r.latency().Seconds()*1e3)
			seeds += r.req.seeds
			if r.latency() <= wl.slo {
				sloOK++
			}
		}
	}
	sort.Float64s(lat)
	n, attempted := len(lat), len(p.d.results)

	var p50s, p90s, reqs, seedRates, rss []float64
	for _, sl := range p.slices(subWindows) {
		p50s = append(p50s, quantile(sl.lat, 0.5))
		// A closed loop's clients are never idle, so by Little's law each
		// slice completes clients / mean latency requests per second.
		reqs = append(reqs, ratio(float64(wl.clients*len(sl.lat)), sl.busy))
		seedRates = append(seedRates, ratio(float64(wl.clients*sl.seeds), sl.busy))
	}
	// Slices for the p90 hold at least 100 samples, so ten lie beyond it.
	for _, sl := range p.slices(max(1, min(subWindows, n/100))) {
		p90s = append(p90s, quantile(sl.lat, 0.9))
	}
	span := p.d.duration / subWindows
	peaks := make([]float64, subWindows)
	for _, s := range p.rss {
		if i := int(s.at.Sub(p.d.t0) / span); i >= 0 && i < subWindows {
			peaks[i] = max(peaks[i], s.mb)
		}
	}
	for _, pk := range peaks {
		if pk > 0 {
			rss = append(rss, pk)
		}
	}
	reqPerS, seedsPerS := median(reqs), median(seedRates)
	if wl.open {
		// An open loop completes what arrives: count the whole window.
		reqPerS = float64(n) / p.d.wall.Seconds()
		seedsPerS = float64(seeds) / p.d.wall.Seconds()
	}
	out := map[string]metric{
		"setup_s":        {Value: median(p.setups), Unit: "s", n: len(p.setups)},
		"latency_p50_ms": {Value: median(p50s), Unit: "ms", n: n},
		"latency_p90_ms": {Value: median(p90s), Unit: "ms", n: n},
		"req_per_s":      {Value: reqPerS, Unit: "1/s", n: n},
		"seeds_per_s":    {Value: seedsPerS, Unit: "1/s", n: n},
		"slo_ok_ratio":   {Value: float64(sloOK) / float64(attempted), Unit: "ratio", n: attempted},
		"failed_ratio":   {Value: float64(p.failed()) / float64(attempted), Unit: "ratio", n: attempted},
		"peak_rss_mb":    {Value: median(rss), Unit: "MiB", n: len(p.rss)},
	}
	// p99 needs at least ten samples beyond it.
	if n >= 1000 {
		out["latency_p99_ms"] = metric{Value: quantile(lat, 0.99), Unit: "ms", n: n}
	}
	return out
}

// exactCounts are the numbers that must repeat exactly for a workload
// seed: they depend on the generated requests alone, so drift means the
// workload changed, not the program's speed.
func (p *pass) exactCounts(wl *workloadDef) map[string]string {
	out := make(map[string]string)
	prefix := p.prefix()
	h := fnv.New64a()
	bytesBy := make(map[string]int)
	for _, r := range prefix {
		fmt.Fprintf(h, "%s|%s|%d", r.req.identity(), r.req.format, r.req.peer)
		if wl.open {
			fmt.Fprintf(h, "|%d", r.intended.Sub(p.d.t0).Nanoseconds())
		}
		bytesBy[r.req.format] += r.recordBytes
	}
	tag := fmt.Sprintf("@%d", len(prefix))
	out["schedule.hash"+tag] = fmt.Sprintf("%016x", h.Sum64())
	for _, f := range formats {
		if n, ok := bytesBy[f]; ok {
			out["wire.bytes_"+wireName(f)+tag] = fmt.Sprint(n)
		}
	}
	if !wl.open {
		d := p.d.checkSnap.sched
		b := p.before.sched
		out["server.seeds_computed"+tag] = fmt.Sprint(d.SeedsComputed - b.SeedsComputed)
		if wl.nodes > 1 {
			out["fleet.remote_seed_ratio"+tag] = fmt.Sprintf("%.6f", ratio(float64(d.SeedsRemote-b.SeedsRemote), float64(d.SeedsRequested-b.SeedsRequested)))
		}
	}
	return out
}

// prefix returns the results of the self-check prefix in schedule order.
func (p *pass) prefix() []*result {
	var out []*result
	for _, r := range p.d.results {
		if r.idx < p.d.checkN {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].idx < out[b].idx })
	return out
}

// wireName turns a format into a metric-name part.
func wireName(format string) string {
	if format == fmtBinStream {
		return "binstream"
	}
	return format
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// gaugeSampler scrapes /metrics every 100 ms during the traced window.
type gaugeSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	s    gaugeSeries
}

type gaugeSeries struct {
	queue, busy []float64
	err         error
}

func startGauges(c *cluster) *gaugeSampler {
	g := &gaugeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-t.C:
			}
			q, b, err := c.scrapeGauges()
			g.mu.Lock()
			if err != nil {
				g.s.err = err
			} else {
				g.s.queue = append(g.s.queue, q)
				g.s.busy = append(g.s.busy, b)
			}
			g.mu.Unlock()
		}
	}()
	return g
}

func (g *gaugeSampler) finish() gaugeSeries {
	close(g.stop)
	<-g.done
	return g.s
}
