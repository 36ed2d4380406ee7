package server

import (
	"context"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/workload"
)

// Streamed responses.  A streamed sweep emits one record per seed as the
// scheduler's flight table resolves it — cached seeds flush immediately,
// computed seeds flush as their fleet batch lands — then a trailer record
// with the aggregate, so a 10k-seed window renders progressively instead of
// buffering.  Records arrive in resolution order, not seed order (each is
// self-describing via its seed field); the buffered body remains the
// seed-ordered rendering of the same record set.
//
// NDJSON (application/x-ndjson): one compact JSON value per line — every
// outcome line is byte-identical to the corresponding element of the
// buffered body's outcomes array, the final line is
// {"trailer":{"aggregate":...,"trace":...}} whose aggregate equals the
// buffered body minus its outcomes, and a mid-stream failure terminates the
// stream with an {"error":...} line instead of a trailer.
//
// Binary (application/x-udc-bin-stream): length-prefixed codec frames — one
// KindOutcome container per seed, then the assembled KindSweep container as
// the trailer (byte-identical to the buffered binary body), or a KindError
// container on mid-stream failure.
//
// Both modes declare X-Cache and Server-Timing as HTTP trailers: the cache
// grade is only known once the window has resolved, after the header block
// is gone.  Failures before the first record are ordinary JSON error
// responses with real status codes.

// streamer writes one streamed response.  Its emitOutcome method is the
// scheduler's emit callback; it runs on the request goroutine, so no
// locking.
type streamer struct {
	w       http.ResponseWriter
	flusher http.Flusher
	format  string // formatNDJSON or formatBinStream
	started bool
	records int
	bytes   int
	frame   []byte // bin-stream frame scratch, reused across records
}

func newStreamer(w http.ResponseWriter, format string) *streamer {
	fl, _ := w.(http.Flusher)
	return &streamer{w: w, flusher: fl, format: format}
}

// begin sends the header block before the first record: the stream content
// type plus the trailer declaration for the end-of-stream X-Cache and
// Server-Timing values.
func (st *streamer) begin() {
	if st.started {
		return
	}
	st.started = true
	ct := ctNDJSON
	if st.format == formatBinStream {
		ct = ctBinStream
	}
	st.w.Header().Set("Content-Type", ct)
	st.w.Header().Set("Trailer", "X-Cache, Server-Timing")
	st.w.WriteHeader(http.StatusOK)
}

// write sends one record and flushes it to the socket, so clients observe
// records as they resolve rather than at buffer boundaries.
func (st *streamer) write(b []byte) {
	st.begin()
	n, _ := st.w.Write(b)
	st.bytes += n
	if st.flusher != nil {
		st.flusher.Flush()
	}
}

// writeFrame sends one length-prefixed container frame.
func (st *streamer) writeFrame(container []byte) {
	st.frame = store.AppendFrame(st.frame[:0], container)
	st.write(st.frame)
}

// emitOutcome is the scheduler's emit callback: one record per resolved
// seed.
func (st *streamer) emitOutcome(o workload.RunOutcome) {
	st.records++
	if st.format == formatNDJSON {
		st.write(MarshalBody(outcomeJSON(o)))
	} else {
		st.writeFrame(store.EncodeOutcome(o))
	}
}

// setTrailers fills the declared HTTP trailers once the outcome is known.
// It begins the stream if nothing was written yet: a stream with zero records
// before its trailer must still send the header block first, so the values
// land as the declared trailers rather than as ordinary headers.
func (st *streamer) setTrailers(status CacheStatus, tr *obs.Trace, total time.Duration) {
	st.begin()
	st.w.Header().Set("X-Cache", string(status))
	st.w.Header().Set("Server-Timing", serverTiming(tr, total, status))
}

// fail terminates the stream: a mid-stream failure (records already on the
// wire, status line long gone) appends a well-formed error record in the
// stream's own framing; a failure before the first record is an ordinary
// JSON error response with its real status code.
func (st *streamer) fail(err error) {
	if !st.started {
		writeError(st.w, err)
		return
	}
	if st.format == formatNDJSON {
		st.write(MarshalBody(errorResponse{Error: err.Error()}))
	} else {
		st.writeFrame(store.EncodeStreamError(err.Error()))
	}
}

// streamTrailerLine is the NDJSON trailer envelope: the one line of a
// streamed response whose top-level key is "trailer" rather than an outcome
// shape, so line consumers dispatch on it.
type streamTrailerLine struct {
	Trailer any `json:"trailer"`
}

// SweepTrailerJSON is a streamed sweep's trailer record: the aggregate the
// buffered body carries before its outcomes, plus the stage trace and cache
// grade the buffered response carries in headers.
type SweepTrailerJSON struct {
	Aggregate SweepAggregate `json:"aggregate"`
	Trace     TraceJSON      `json:"trace"`
}

// ExtractTrailerJSON is SweepTrailerJSON for extraction streams.
type ExtractTrailerJSON struct {
	Aggregate ExtractAggregate `json:"aggregate"`
	Trace     TraceJSON        `json:"trace"`
}

// TraceJSON is a stream trailer's trace block: the scheduler's stage
// breakdown, the total latency, and the cache grade.
type TraceJSON struct {
	Stages      []TraceStageJSON `json:"stages"`
	TotalMillis float64          `json:"totalMillis"`
	Cache       string           `json:"cache"`
}

func traceJSON(tr *obs.Trace, total time.Duration, status CacheStatus) TraceJSON {
	return TraceJSON{Stages: stagesJSON(tr.Stages()), TotalMillis: millis(total), Cache: string(status)}
}

// streamSweep serves one sweep request in a streamed format.
func (s *Server) streamSweep(ctx context.Context, x *exchange, req SweepRequest) {
	st := newStreamer(x.w, x.format)
	payload, status, err := s.sched.Sweep(ctx, req, x.tr, st.emitOutcome)
	if err == nil && x.format == formatNDJSON {
		var rec *store.SweepRecord
		if rec, err = store.DecodeSweepRecord(payload); err == nil {
			total := time.Since(x.start)
			st.setTrailers(status, x.tr, total)
			st.write(MarshalBody(streamTrailerLine{Trailer: SweepTrailerJSON{
				Aggregate: SweepAggregateOf(rec),
				Trace:     traceJSON(x.tr, total, status),
			}}))
		}
	} else if err == nil {
		// The assembled sweep container is the binary trailer, byte-identical
		// to the buffered binary body.
		st.setTrailers(status, x.tr, time.Since(x.start))
		st.writeFrame(payload)
	}
	s.finishStream(x, st, status, err)
}

// streamExtract serves one extraction request as NDJSON: verdict lines, then
// the trailer.  The pipeline tail is one indivisible computation, so the
// lines flush together once it lands — streaming here is about incremental
// consumption of large verdict sets, not progressive compute.
func (s *Server) streamExtract(ctx context.Context, x *exchange, req ExtractRequest) {
	st := newStreamer(x.w, formatNDJSON)
	payload, status, err := s.sched.Extract(ctx, req, x.tr)
	var rec *store.ExtractionRecord
	if err == nil {
		rec, err = store.DecodeExtractionRecord(payload)
	}
	if err == nil {
		for _, v := range rec.Verdicts {
			st.records++
			st.write(MarshalBody(verdictJSON(v)))
		}
		total := time.Since(x.start)
		st.setTrailers(status, x.tr, total)
		st.write(MarshalBody(streamTrailerLine{Trailer: ExtractTrailerJSON{
			Aggregate: ExtractAggregateOf(rec),
			Trace:     traceJSON(x.tr, total, status),
		}}))
	}
	s.finishStream(x, st, status, err)
}

// finishStream terminates a failed stream, records the stream's wire
// accounting and finishes its trace, exactly like the buffered paths.
func (s *Server) finishStream(x *exchange, st *streamer, status CacheStatus, err error) {
	if err != nil {
		st.fail(err)
	}
	s.observeWire(x.route, x.format, st.bytes)
	s.finishRequest(x, status, err)
}
