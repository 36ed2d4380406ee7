package store

import (
	"bytes"
	"encoding/binary"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"testing"

	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/workload"
)

var updateFuzzSeeds = flag.Bool("update-fuzz-seeds", false, "rewrite the decoder fuzz targets' seed corpora under testdata/fuzz")

// FuzzDecodeSeedRecord fuzzes the seed-record decoder, the corpus's hot
// read path, with fuzzDecode's properties.  The seed corpus in
// testdata/fuzz/FuzzDecodeSeedRecord holds encoded records of catalogued
// scenario seeds plus one exercising every event field (see
// fuzzSeedRecords); a plain `go test` replays it, which also pins those
// records' bytes.
func FuzzDecodeSeedRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDecode(t, data, decodeOwned, EncodeSeedRecord)
	})
}

// FuzzDecodeSweepRecord fuzzes the sweep-record decoder, which also decodes
// fleet peers' claim responses, with fuzzDecode's properties.  Its seed
// corpus (see fuzzSweepRecords) is pinned like FuzzDecodeSeedRecord's.
func FuzzDecodeSweepRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDecode(t, data, DecodeSweepRecord, EncodeSweepRecord)
	})
}

// fuzzDecode decodes each input twice: as given, and resealed — its trailing
// checksum recomputed — so mutations of the payload reach the decoder
// instead of stopping at the CRC.  For both it checks that decoding never
// panics, that it allocates at most a constant factor of the input size,
// that an accepted input re-encodes to exactly its own bytes, and that the
// same input with one checksum bit flipped is rejected.
func fuzzDecode[R any](t *testing.T, data []byte, decode func([]byte) (R, error), encode func(R) []byte) {
	checkDecode(t, data, decode, encode)
	if len(data) >= headerLen+trailerLen {
		checkDecode(t, reseal(data), decode, encode)
	}
}

// reseal returns a copy of data with its trailing CRC-32C recomputed.
func reseal(data []byte) []byte {
	body := data[:len(data)-trailerLen]
	return binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.Checksum(body, crcTable))
}

// allocBound is the most a decode of n input bytes may allocate: the event
// slab (176 B per event, capacity doubling, and the owned copy) is the
// largest term, and every count the decoder sizes an allocation from is
// bounded by the bytes remaining.  The constant covers a fresh pooled
// decoder and the allocator's span-granular accounting.
func allocBound(n int) uint64 { return 1024*uint64(n) + 256<<10 }

func checkDecode[R any](t *testing.T, data []byte, decode func([]byte) (R, error), encode func(R) []byte) {
	t.Helper()
	var rec R
	var err error
	// A second measurement rules out an allocation elsewhere in the
	// process; a real amplification shows in both.
	if heapAllocs(func() { rec, err = decode(data) }) > allocBound(len(data)) {
		if again := heapAllocs(func() { decode(data) }); again > allocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d bytes (bound %d)", len(data), again, allocBound(len(data)))
		}
	}
	if err != nil {
		return
	}
	if re := encode(rec); !bytes.Equal(re, data) {
		t.Fatalf("accepted input re-encodes differently (%d bytes in, %d out)", len(data), len(re))
	}
	flipped := bytes.Clone(data)
	flipped[len(flipped)-1-len(data)%trailerLen] ^= 1 << (len(data) % 8)
	if _, err := decode(flipped); err == nil {
		t.Fatal("input with a flipped checksum bit was accepted")
	}
}

// heapAllocs reports the heap bytes f allocated.
func heapAllocs(f func()) uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	before := sample[0].Value.Uint64()
	f()
	metrics.Read(sample)
	return sample[0].Value.Uint64() - before
}

// decodeOwned decodes a seed record the way DecodeSeedRecord does — a
// transient decode then an owned copy of the run — but on a fresh decoder,
// the pooled path's worst case.
func decodeOwned(data []byte) (*SeedRecord, error) {
	rec, err := NewRunDecoder().DecodeSeedRecord(data)
	if err == nil {
		rec.Run = rec.Run.CompactClone()
	}
	return rec, err
}

// fuzzSeedRecords builds the seed corpus: one Table 1 seed's record scored
// and as an unscored extraction source, and a hand-built record whose run
// sets every event, message and report field and which carries violations.
func fuzzSeedRecords(t *testing.T) map[string][]byte {
	t.Helper()
	sc := registry.MustScenario("prop2.4-reliable-udc")
	seeds := workload.Seeds(1, 1)
	ran, err := workload.Runner{Workers: 1}.RunAll([]workload.Task{
		{Spec: sc.Spec, Seeds: seeds, Eval: sc.Eval},
		{Spec: sc.Spec, Seeds: seeds},
	})
	if err != nil {
		t.Fatal(err)
	}

	run := model.NewRun(3)
	for _, a := range []struct {
		p  model.ProcID
		tm int
		e  model.Event
	}{
		{0, 1, model.Event{Kind: model.EventInit, Action: model.Action(0, 2)}},
		{0, 1, model.Event{Kind: model.EventSend, Peer: 2, Msg: model.Message{
			Kind: "estimate", Action: model.Action(0, 2), Round: 3, Phase: 1, Value: -7, Aux: 300,
			Suspects: model.Singleton(1), KnownCrashed: model.Singleton(2), KnownInits: true,
		}}},
		{2, 2, model.Event{Kind: model.EventRecv, Peer: 0, Msg: model.Message{Kind: "estimate", Round: 3}}},
		{1, 2, model.Event{Kind: model.EventSuspect, Report: model.SuspectReport{Generalized: true, Group: model.FullSet(3), MinFaulty: 1}}},
		{2, 3, model.Event{Kind: model.EventSuspect, Report: model.SuspectReport{CorrectReport: true, Correct: model.Singleton(0)}}},
		{1, 4, model.Event{Kind: model.EventSuspect, Report: model.SuspectReport{Suspects: model.Singleton(2)}}},
		{0, 200, model.Event{Kind: model.EventDo, Action: model.Action(0, 2)}},
		{2, 201, model.Event{Kind: model.EventCrash}},
	} {
		if err := run.Append(a.p, a.tm, a.e); err != nil {
			t.Fatal(err)
		}
	}
	run.SetHorizon(20000)
	fields := &SeedRecord{
		Seed:           -99991,
		Stats:          sim.Stats{Steps: 20000, MessagesSent: 1, MessagesDelivered: 1, DoEvents: 1, InitEvents: 1, SuspectEvents: 3, CrashEvents: 1, LastEventTime: 201},
		Scored:         true,
		Violations:     []model.Violation{{Rule: "DC2", Detail: "process 0 performed a(0,2) but correct process 1 never did"}, {Rule: "DC1"}},
		LatencySum:     199,
		LatencyActions: 1,
		Run:            run,
	}
	return map[string][]byte{
		"prop2.4-scored": EncodeSeedRecord(NewSeedRecord(ran[0][0], true)),
		"prop2.4-source": EncodeSeedRecord(NewSeedRecord(ran[1][0], false)),
		"every-field":    EncodeSeedRecord(fields),
	}
}

// fuzzSweepRecords builds FuzzDecodeSweepRecord's seed corpus: a Table 1
// window as /v1/sweep stores it, and a claim-shaped record — explicit
// non-contiguous seeds under an adversary override — whose outcomes carry
// violations and latencies.
func fuzzSweepRecords(t *testing.T) map[string][]byte {
	t.Helper()
	sc := registry.MustScenario("prop2.4-reliable-udc")
	window, err := workload.Sweep(sc.Spec, workload.Seeds(1, 2), sc.Eval)
	if err != nil {
		t.Fatal(err)
	}
	claim := &SweepRecord{Scenario: "prop3.1-strong-udc", Check: "udc", Adversary: "burst-loss", SeedBase: -3, Outcomes: []workload.RunOutcome{
		{Seed: -3, Stats: sim.Stats{Steps: 400, MessagesSent: 12, MessagesDelivered: 9, MessagesDropped: 2, MessagesToCrashed: 1, MessagesDuplicated: 1, DoEvents: 2, InitEvents: 2, CrashEvents: 1, LastEventTime: 390}, LatencySum: 57, LatencyActions: 2},
		{Seed: 40, Violations: []model.Violation{{Rule: "DC2", Detail: "process 0 performed a(0,2) but correct process 1 never did"}, {Rule: "DC1"}}},
	}}
	return map[string][]byte{
		"prop2.4-window": EncodeSweepRecord(NewSweepRecord(sc.Name, sc.Check, "", 1, window)),
		"claim-fields":   EncodeSweepRecord(claim),
	}
}

// TestFuzzSeedCorpusCurrent checks that the committed seed corpora are what
// the current encoders produce for fuzzSeedRecords' and fuzzSweepRecords'
// values, so each corpus stays a set of real records (and pins their
// bytes).  Run with -update-fuzz-seeds to rewrite them.
func TestFuzzSeedCorpusCurrent(t *testing.T) {
	for target, recs := range map[string]map[string][]byte{
		"FuzzDecodeSeedRecord":  fuzzSeedRecords(t),
		"FuzzDecodeSweepRecord": fuzzSweepRecords(t),
	} {
		dir := filepath.Join("testdata", "fuzz", target)
		for name, rec := range recs {
			want := []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(rec)) + ")\n")
			path := filepath.Join(dir, name)
			if *updateFuzzSeeds {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, want, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: committed seed differs from the current encoding of its record", path)
			}
		}
	}
}

// TestDecodeRejectsNonCanonical pins the canonical-decoding rules the
// fuzzer's re-encode property relies on: each hand-built container differs
// from a canonical one-event seed record in exactly one encoding choice, and
// only the canonical one decodes.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	build := func(scored []byte, time []byte, eventMask, peer uint64, msgMask uint64, msg func(w *writer)) []byte {
		w := newWriter(KindSeed, 0)
		w.svarint(7) // seed
		for i := 0; i < 11; i++ {
			w.int(0) // stats
		}
		w.buf = append(w.buf, scored...)
		w.uvarint(0) // violations
		w.int(0)     // latency sum
		w.int(0)     // latency actions
		w.int(2)     // n
		w.int(5)     // horizon
		w.uvarint(1) // process 0: one event
		w.buf = append(w.buf, time...)
		w.uvarint(uint64(model.EventSend))
		w.uvarint(eventMask)
		if eventMask&(1<<0) != 0 {
			w.svarint(int64(peer))
		}
		if eventMask&(1<<1) != 0 {
			w.uvarint(msgMask)
			msg(&w)
		}
		w.uvarint(0) // process 1: no events
		return w.seal()
	}
	alpha := func(w *writer) { w.str("alpha") }
	cases := []struct {
		name string
		data []byte
		ok   bool
	}{
		{"canonical", build([]byte{1}, []byte{2}, 0b11, 1, 1, alpha), true},
		{"bool byte 2", build([]byte{2}, []byte{2}, 0b11, 1, 1, alpha), false},
		{"non-minimal varint", build([]byte{1}, []byte{0x82, 0x00}, 0b11, 1, 1, alpha), false},
		{"unknown event mask bit", build([]byte{1}, []byte{2}, 0b10011, 1, 1, alpha), false},
		{"present peer 0", build([]byte{1}, []byte{2}, 0b11, 0, 1, alpha), false},
		{"empty message", build([]byte{1}, []byte{2}, 0b11, 1, 0, func(*writer) {}), false},
		{"present round 0", build([]byte{1}, []byte{2}, 0b11, 1, 0b101, func(w *writer) { alpha(w); w.int(0) }), false},
		{"present empty kind", build([]byte{1}, []byte{2}, 0b11, 1, 1, func(w *writer) { w.str("") }), false},
	}
	for _, c := range cases {
		rec, err := DecodeSeedRecord(c.data)
		if (err == nil) != c.ok {
			t.Errorf("%s: decode error %v, want accepted=%v", c.name, err, c.ok)
			continue
		}
		if c.ok && !bytes.Equal(EncodeSeedRecord(rec), c.data) {
			t.Errorf("%s: canonical record does not re-encode to its bytes", c.name)
		}
	}
}
