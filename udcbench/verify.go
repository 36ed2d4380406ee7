package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"sort"

	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/workload"
)

// stream is a parsed streamed body: its per-seed records (in arrival
// order), its trailer, and an order-independent hash of both.
type stream struct {
	records    [][]byte
	trailerLen int             // ndjson: bytes of the trailer line
	aggregate  json.RawMessage // ndjson: the trailer's aggregate
	trailer    []byte          // bin-stream: the final container
	canon      uint64
}

// splitNDJSON parses an NDJSON body: one record per line, then a
// {"trailer":{"aggregate":...,"trace":...}} line.  The trace carries this
// request's timings, so only the aggregate enters the canonical hash.
func splitNDJSON(body []byte) (*stream, error) {
	s := &stream{}
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	if len(lines) == 0 {
		return nil, errors.New("empty ndjson stream")
	}
	s.trailerLen = len(lines[len(lines)-1]) + 1
	var tl struct {
		Trailer *struct {
			Aggregate json.RawMessage `json:"aggregate"`
		} `json:"trailer"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &tl); err != nil || tl.Trailer == nil {
		return nil, fmt.Errorf("ndjson stream does not end in a trailer (error %q)", tl.Error)
	}
	s.aggregate = tl.Trailer.Aggregate
	s.records = lines[:len(lines)-1]
	s.canon = setHash(s.records) ^ maphash.Bytes(hashSeed, s.aggregate)
	return s, nil
}

// splitBinStream parses a bin-stream body: one outcome frame per seed, then
// the assembled sweep container.
func splitBinStream(body []byte) (*stream, error) {
	s := &stream{}
	fr := store.NewFrameReader(bytes.NewReader(body))
	for {
		frame, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if s.trailer != nil {
			return nil, errors.New("bin-stream frames after the trailer")
		}
		// The reader reuses its buffer: keep copies.
		frame = append([]byte(nil), frame...)
		if _, err := store.DecodeOutcome(frame); err == nil {
			s.records = append(s.records, frame)
			continue
		}
		if msg, err := store.DecodeStreamError(frame); err == nil {
			return nil, fmt.Errorf("bin-stream error frame: %s", msg)
		}
		if _, err := store.DecodeSweepRecord(frame); err != nil {
			return nil, fmt.Errorf("bin-stream trailer: %w", err)
		}
		s.trailer = frame
	}
	if s.trailer == nil {
		return nil, errors.New("bin-stream ended without a trailer")
	}
	s.canon = setHash(s.records) ^ maphash.Bytes(hashSeed, s.trailer)
	return s, nil
}

// setHash combines record hashes independently of their order.
func setHash(records [][]byte) uint64 {
	var sum uint64
	for _, rec := range records {
		sum += maphash.Bytes(hashSeed, rec)
	}
	return sum
}

// checkExtractBody asserts the verdict Theorems 3.6 and 4.3 predict for a
// buffered extraction body: every catalogued pipeline the workloads use
// runs a system that attains UDC, so the extracted detector passes its
// property check on every kept run.
func checkExtractBody(format string, body []byte) error {
	if format == fmtBin {
		rec, err := store.DecodeExtractionRecord(body)
		if err != nil {
			return err
		}
		if rec.Kept == 0 || rec.TotalViolations() != 0 {
			return fmt.Errorf("extraction %s: kept %d runs with %d violations, want a passing detector", rec.Extraction, rec.Kept, rec.TotalViolations())
		}
		return nil
	}
	var agg server.ExtractAggregate
	if err := json.Unmarshal(body, &agg); err != nil {
		return err
	}
	return verdictOK(agg)
}

func checkExtractAggregate(raw json.RawMessage) error {
	var agg server.ExtractAggregate
	if err := json.Unmarshal(raw, &agg); err != nil {
		return err
	}
	return verdictOK(agg)
}

func verdictOK(agg server.ExtractAggregate) error {
	if agg.Kept == 0 || !agg.OK || agg.TotalViolations != 0 {
		return fmt.Errorf("extraction %s: kept %d runs, ok=%v with %d violations, want a passing detector", agg.Extraction, agg.Kept, agg.OK, agg.TotalViolations)
	}
	return nil
}

// reference is a request's expected response, computed in-process by the
// serial library path the daemon promises byte-identity with.
type reference struct {
	json      []byte
	bin       []byte
	lines     map[string]bool // ndjson record lines
	frames    map[string]bool // bin-stream outcome frames
	aggregate []byte
}

// buildReference runs the request's window directly: workload.Sweep →
// store.NewSweepRecord → server.SweepResponseOf, or Runner.Extract →
// store.NewExtractionRecord → server.ExtractResponseOf.
func buildReference(req request) (*reference, error) {
	ref := &reference{lines: make(map[string]bool), frames: make(map[string]bool)}
	var items []json.RawMessage
	if req.extract {
		sc, err := registry.LookupExtraction(req.name)
		if err != nil {
			return nil, err
		}
		ext := sc.Extraction
		ext.Runs, ext.BaseSeed = req.seeds, req.base
		res, err := workload.Runner{}.Extract(ext)
		if err != nil {
			return nil, err
		}
		rec := store.NewExtractionRecord("", sc.Stress, res)
		ref.json = server.MarshalBody(server.ExtractResponseOf(rec))
		ref.bin = store.EncodeExtractionRecord(rec)
		if ref.aggregate, err = json.Marshal(server.ExtractAggregateOf(rec)); err != nil {
			return nil, err
		}
		var parsed struct {
			Verdicts []json.RawMessage `json:"verdicts"`
		}
		if err := json.Unmarshal(ref.json, &parsed); err != nil {
			return nil, err
		}
		items = parsed.Verdicts
	} else {
		sc, err := registry.LookupScenario(req.name)
		if err != nil {
			return nil, err
		}
		res, err := workload.Sweep(sc.Spec, workload.Seeds(req.base, req.seeds), sc.Eval)
		if err != nil {
			return nil, err
		}
		rec := store.NewSweepRecord(sc.Name, sc.Check, "", req.base, res)
		ref.json = server.MarshalBody(server.SweepResponseOf(rec))
		ref.bin = store.EncodeSweepRecord(rec)
		if ref.aggregate, err = json.Marshal(server.SweepAggregateOf(rec)); err != nil {
			return nil, err
		}
		for _, o := range rec.Outcomes {
			ref.frames[string(store.EncodeOutcome(o))] = true
		}
		var parsed struct {
			Outcomes []json.RawMessage `json:"outcomes"`
		}
		if err := json.Unmarshal(ref.json, &parsed); err != nil {
			return nil, err
		}
		items = parsed.Outcomes
	}
	for _, it := range items {
		ref.lines[string(it)] = true
	}
	return ref, nil
}

// verifyRetained compares every retained body with its reference.  A
// mismatch marks the result failed.  It returns how many bodies it checked
// and the distinct grade×format classes they covered.
func verifyRetained(results []*result) (checked int, classes []string, err error) {
	refs := make(map[string]*reference)
	seen := make(map[string]bool)
	for _, r := range results {
		if r.body == nil || !r.ok() {
			continue
		}
		id := r.req.identity()
		ref, ok := refs[id]
		if !ok {
			if ref, err = buildReference(r.req); err != nil {
				return checked, nil, fmt.Errorf("reference for %s: %w", id, err)
			}
			refs[id] = ref
		}
		if verr := compareBody(r, ref); verr != nil {
			r.err = fmt.Sprintf("verification of %s (%s, %s): %v", id, r.req.format, r.grade, verr)
		}
		checked++
		seen[r.grade+"/"+r.req.format] = true
	}
	for c := range seen {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	return checked, classes, nil
}

func compareBody(r *result, ref *reference) error {
	switch r.req.format {
	case fmtJSON:
		if !bytes.Equal(r.body, ref.json) {
			return errors.New("json body differs from the direct computation")
		}
	case fmtBin:
		if !bytes.Equal(r.body, ref.bin) {
			return errors.New("binary body differs from the direct computation")
		}
	case fmtNDJSON:
		s, err := splitNDJSON(r.body)
		if err != nil {
			return err
		}
		if !bytes.Equal(s.aggregate, ref.aggregate) {
			return errors.New("ndjson trailer aggregate differs from the direct computation")
		}
		return sameSet(s.records, ref.lines)
	case fmtBinStream:
		s, err := splitBinStream(r.body)
		if err != nil {
			return err
		}
		if !bytes.Equal(s.trailer, ref.bin) {
			return errors.New("bin-stream trailer differs from the direct computation")
		}
		return sameSet(s.records, ref.frames)
	}
	return nil
}

// sameSet checks that records are exactly the reference's records, each
// once.
func sameSet(records [][]byte, want map[string]bool) error {
	got := make(map[string]bool, len(records))
	for _, rec := range records {
		if !want[string(rec)] || got[string(rec)] {
			return errors.New("streamed record not in the direct computation (or repeated)")
		}
		got[string(rec)] = true
	}
	if len(got) != len(want) {
		return fmt.Errorf("stream carries %d of %d records", len(got), len(want))
	}
	return nil
}
