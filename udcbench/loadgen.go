package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"net/http"
	"net/http/httptrace"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// job is one scheduled request.
type job struct {
	idx      int
	req      request
	intended time.Time
	lag      time.Duration // how late the generator handed the job over
}

// result is one finished request as the client saw it.
type result struct {
	job
	sent, firstByte, done time.Time
	status                int
	grade                 string
	timing                string // Server-Timing (header or trailer)
	bytes                 int    // body bytes on the wire
	recordBytes           int    // body bytes minus an NDJSON trailer line (which carries timings)
	err                   string
	canon                 uint64 // order-independent body hash
	body                  []byte // retained for full verification
}

func (r *result) ok() bool { return r.err == "" }

// latency is the client-observed latency: from the intended send time in an
// open loop (so generator stalls and client queueing count), from the send
// in a closed loop (where the two coincide).
func (r *result) latency() time.Duration { return r.done.Sub(r.intended) }

// driver runs one timed window of a workload against a booted cluster.
type driver struct {
	c        *cluster
	w        *workloadDef
	sched    schedule
	seed     uint64
	conns    int
	duration time.Duration
	checkN   int
	spans    *spanLog // nil when untraced

	mu        sync.Mutex
	results   []*result
	idBodies  map[string]uint64 // identity|format → canonical hash
	classes   map[string]bool   // kind|grade|format classes retained so far
	retained  int
	checkDone chan struct{}
	checkLeft atomic.Int64
	checkSnap counters
	checkErr  error

	t0   time.Time
	wall time.Duration
}

// retainCap bounds how many sampled bodies are kept for full verification
// beyond the first of each class.
const retainCap = 24

var hashSeed = maphash.MakeSeed()

func newDriver(c *cluster, w *workloadDef, seed uint64, sc scale, conns int, duration time.Duration, spans *spanLog) *driver {
	d := &driver{
		c: c, w: w, sched: w.schedule(seed, sc), seed: seed, conns: conns, duration: duration,
		checkN: w.checkN, spans: spans,
		idBodies: make(map[string]uint64), classes: make(map[string]bool), checkDone: make(chan struct{}),
	}
	if sc.checkN > 0 {
		d.checkN = sc.checkN
	}
	d.checkLeft.Store(int64(d.checkN))
	return d
}

// run drives the window and returns once every issued request finished.
func (d *driver) run() {
	d.t0 = time.Now()
	if d.w.open {
		d.runOpen()
	} else {
		d.runClosed()
	}
	d.wall = time.Since(d.t0)
}

// runOpen sends on a seeded Poisson schedule regardless of completions; a
// fixed set of conns workers carries the requests, so queueing behind a
// slow daemon shows up as latency measured from the intended send time.
func (d *driver) runOpen() {
	// Sized so the generator never blocks on a backlog within a run.
	queue := make(chan job, 1<<17)
	var wg sync.WaitGroup
	for range d.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for j := range queue {
				d.record(d.do(j, &buf))
			}
		}()
	}
	arrivals := rng(d.seed, 9)
	var at time.Duration
	for i := 0; ; i++ {
		at += time.Duration(arrivals.ExpFloat64() / d.w.rate * float64(time.Second))
		if at >= d.duration {
			break
		}
		req := d.sched.next(i)
		intended := d.t0.Add(at)
		if wait := time.Until(intended); wait > 0 {
			time.Sleep(wait)
		}
		queue <- job{idx: i, req: req, intended: intended, lag: time.Since(intended)}
	}
	close(queue)
	wg.Wait()
}

// runClosed runs w.clients clients that each send the next scheduled
// request when their previous one completes.  The first checkN requests
// always run (the self-check covers them) and the counters are snapshotted
// once they have all finished, before any later request starts.
func (d *driver) runClosed() {
	var mu sync.Mutex
	next := 0
	deadline := d.t0.Add(d.duration)
	take := func() (job, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= d.checkN && time.Now().After(deadline) {
			return job{}, false
		}
		j := job{idx: next, req: d.sched.next(next)}
		next++
		return j, true
	}
	var wg sync.WaitGroup
	for range d.w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				j, ok := take()
				if !ok {
					return
				}
				if j.idx >= d.checkN {
					<-d.checkDone
				}
				j.intended = time.Now()
				d.record(d.do(j, &buf))
			}
		}()
	}
	wg.Wait()
}

// traceparentFor names request i's trace, so daemon-side work it causes
// (fleet claims) can be attributed back to it.
func traceparentFor(i int) string {
	var id obs.TraceID
	id[0] = 0xbe
	for k := 0; k < 8; k++ {
		id[15-k] = byte(uint64(i) >> (8 * k))
	}
	var span obs.SpanID
	span[0] = 1
	return obs.Traceparent(id, span)
}

// requestOf inverts traceparentFor (-1 for foreign traces).
func requestOf(traceparent string) int {
	id, _, ok := obs.ParseTraceparent(traceparent)
	if !ok || id[0] != 0xbe {
		return -1
	}
	var i uint64
	for k := 0; k < 8; k++ {
		i |= uint64(id[15-k]) << (8 * k)
	}
	return int(i)
}

// do sends one request and reads the whole body.
func (d *driver) do(j job, buf *bytes.Buffer) *result {
	r := &result{job: j}
	hreq, err := http.NewRequest(http.MethodGet, d.c.nodes[j.req.peer].url+j.req.path(), nil)
	if err != nil {
		r.err = err.Error()
		return r
	}
	hreq.Header.Set("Accept", acceptOf[j.req.format])
	if d.spans != nil {
		hreq.Header.Set("traceparent", traceparentFor(j.idx))
		hreq = hreq.WithContext(httptrace.WithClientTrace(hreq.Context(), &httptrace.ClientTrace{
			GotFirstResponseByte: func() { r.firstByte = time.Now() },
		}))
	}
	r.sent = time.Now()
	resp, err := d.c.client.Do(hreq)
	if err != nil {
		r.done = time.Now()
		r.err = err.Error()
		return r
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	r.done = time.Now()
	r.status = resp.StatusCode
	r.bytes = buf.Len()
	if err != nil {
		r.err = "read body: " + err.Error()
		return r
	}
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(buf.String()))
		return r
	}
	r.grade = resp.Header.Get("X-Cache") + resp.Trailer.Get("X-Cache")
	r.timing = resp.Header.Get("Server-Timing") + resp.Trailer.Get("Server-Timing")
	if err := d.inspect(r, buf.Bytes()); err != nil {
		r.err = err.Error()
	}
	return r
}

// record files a finished request: identity byte-equality, and retention
// of the first body of every class plus a seeded sample for full
// verification after the window.
func (d *driver) record(r *result) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.results = append(d.results, r)
	if r.idx < d.checkN && d.checkLeft.Add(-1) == 0 && !d.w.open {
		d.checkSnap, d.checkErr = d.c.snapshot()
		close(d.checkDone)
	}
	if !r.ok() {
		r.body = nil
		return
	}
	key := r.req.identity() + "|" + r.req.format
	if h, seen := d.idBodies[key]; seen && h != r.canon {
		r.err = "body differs from an earlier response to the same request"
		r.body = nil
		return
	}
	d.idBodies[key] = r.canon
	class := fmt.Sprintf("%v|%s|%s", r.req.extract, r.grade, r.req.format)
	keep := !d.classes[class]
	if !keep && d.retained < retainCap && sampled(d.seed, r.idx) {
		keep = true
		d.retained++
	}
	if keep {
		d.classes[class] = true
		r.body = append([]byte(nil), r.body...)
	} else {
		r.body = nil
	}
}

// sampled picks about one request in 64, a function of the workload seed
// and the request index alone.
func sampled(seed uint64, idx int) bool {
	return rng(seed, uint64(idx)+1<<32).IntN(64) == 0
}

// inspect validates a body's shape (stream framing, record count, the
// extraction verdict) and computes its canonical hash.  It leaves a view
// of the body in r.body; record copies it if the body is retained.
func (d *driver) inspect(r *result, body []byte) error {
	r.body = body
	r.recordBytes = len(body)
	switch r.req.format {
	case fmtJSON, fmtBin:
		r.canon = maphash.Bytes(hashSeed, body)
		if r.req.extract {
			return checkExtractBody(r.req.format, body)
		}
		return nil
	case fmtNDJSON:
		s, err := splitNDJSON(body)
		if err != nil {
			return err
		}
		r.recordBytes = len(body) - s.trailerLen
		r.canon = s.canon
		if r.req.extract {
			return checkExtractAggregate(s.aggregate)
		}
		if len(s.records) != r.req.seeds {
			return fmt.Errorf("ndjson stream carries %d records, want %d", len(s.records), r.req.seeds)
		}
		return nil
	case fmtBinStream:
		s, err := splitBinStream(body)
		if err != nil {
			return err
		}
		r.canon = s.canon
		if len(s.records) != r.req.seeds {
			return fmt.Errorf("bin-stream carries %d records, want %d", len(s.records), r.req.seeds)
		}
		// The trailer frame is the buffered binary body of the same request.
		d.mu.Lock()
		defer d.mu.Unlock()
		key := r.req.identity() + "|" + fmtBin
		h := maphash.Bytes(hashSeed, s.trailer)
		if prev, seen := d.idBodies[key]; seen && prev != h {
			return fmt.Errorf("bin-stream trailer differs from the buffered binary body")
		}
		d.idBodies[key] = h
		return nil
	}
	return fmt.Errorf("unknown format %q", r.req.format)
}

// parseTiming parses a Server-Timing value into its stages in header
// order, in milliseconds, with the "total" entry split out and the cache
// description skipped.
func parseTiming(timing string) orderedStages {
	var out orderedStages
	for _, part := range strings.Split(timing, ",") {
		name, params, _ := strings.Cut(strings.TrimSpace(part), ";")
		_, dur, ok := strings.Cut(params, "dur=")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(dur, 64)
		if err != nil {
			continue
		}
		if name == "total" {
			out.total = v
		} else {
			out.stages = append(out.stages, stageTiming{name, v})
		}
	}
	return out
}

// rssSampler records the process's resident set every 20 ms while it runs.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []rssSample
}

type rssSample struct {
	at time.Time
	mb float64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			s.samples = append(s.samples, rssSample{at: time.Now(), mb: float64(readRSS()) / (1 << 20)})
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples.
func (s *rssSampler) finish() []rssSample {
	close(s.stop)
	<-s.done
	return s.samples
}

// readRSS returns the resident set size from /proc/self/statm (0 when it
// cannot be read).
func readRSS() int64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(raw))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// quantile returns the q-quantile of sorted values by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}
