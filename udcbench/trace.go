package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/server"
)

// span is one timed interval of the traced run, recorded from outside the
// daemon around a call into one of its layers.  Times are nanoseconds since
// the window started; Parent indexes the span log (-1 for a root) and Req
// is the request index (-1 for replay work).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// spanLog keeps the traced run's spans in memory; they are written out once
// the run ends.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (l *spanLog) add(name string, start, end time.Time, parent, req int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds(), Parent: parent, Req: req})
	return len(l.spans) - 1
}

// requestSpans adds each request's spans: "client" from the intended send
// to the last body byte, "http" from the send, and "server" for the
// daemon's Server-Timing total, with its stages laid end to end inside it
// in header order (Server-Timing gives durations, not offsets).  A buffered
// response's server span ends at its first response byte; a stream's starts
// at the send.
func (l *spanLog) requestSpans(results []*result) map[int]int {
	servers := make(map[int]int, len(results))
	for _, r := range results {
		if !r.ok() {
			continue
		}
		root := l.add("client", r.intended, r.done, -1, r.idx)
		httpSpan := l.add("http", r.sent, r.done, root, r.idx)
		st := parseTiming(r.timing)
		total := time.Duration(st.total * float64(time.Millisecond))
		start := r.sent
		if r.req.format == fmtJSON || r.req.format == fmtBin {
			if !r.firstByte.IsZero() && r.firstByte.Add(-total).After(r.sent) {
				start = r.firstByte.Add(-total)
			}
		}
		end := start.Add(total)
		if end.After(r.done) {
			end = r.done
		}
		srv := l.add("server", start, end, httpSpan, r.idx)
		servers[r.idx] = srv
		at := start
		for _, s := range st.stages {
			d := time.Duration(s.ms * float64(time.Millisecond))
			l.add("server."+s.name, at, at.Add(d), srv, r.idx)
			at = at.Add(d)
		}
	}
	return servers
}

type stageTiming struct {
	name string
	ms   float64
}

type orderedStages struct {
	stages []stageTiming
	total  float64
}

// selfTimes returns each span name's summed self time (its duration minus
// the part of it that its children cover) in milliseconds, and its count.
func (l *spanLog) selfTimes() map[string][2]float64 {
	children := make(map[int][]span)
	for _, s := range l.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][2]float64)
	for i, s := range l.spans {
		covered := int64(0)
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		cur := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		agg := out[s.Name]
		agg[0] += float64(s.End-s.Start-covered) / 1e6
		agg[1]++
		out[s.Name] = agg
	}
	return out
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// claimRecorder wraps the production claim transport in the traced fleet
// run, timing each claim RPC and attributing it to the request whose trace
// it carries.
type claimRecorder struct {
	inner fleet.Transport

	mu    sync.Mutex
	calls []claimCall
}

type claimCall struct {
	start, end time.Time
	req        int
	seeds      int
	bytes      int
	failed     bool
}

func (c *claimRecorder) Claim(ctx context.Context, peer, traceparent string, body []byte) ([]byte, error) {
	start := time.Now()
	out, err := c.inner.Claim(ctx, peer, traceparent, body)
	call := claimCall{start: start, end: time.Now(), req: requestOf(traceparent), bytes: len(out), failed: err != nil}
	var cr server.ClaimRequest
	if json.Unmarshal(body, &cr) == nil {
		call.seeds = len(cr.Seeds)
	}
	c.mu.Lock()
	c.calls = append(c.calls, call)
	c.mu.Unlock()
	return out, err
}

// reset drops the calls recorded so far (set-up traffic).
func (c *claimRecorder) reset() {
	c.mu.Lock()
	c.calls = nil
	c.mu.Unlock()
}

func (c *claimRecorder) snapshot() []claimCall {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]claimCall(nil), c.calls...)
}
