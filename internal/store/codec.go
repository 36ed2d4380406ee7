package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/model"
	"repro/internal/trace"
)

// The binary codec serialises recorded runs and sweep/extraction records into
// a compact, deterministic container: a fixed magic, a format version, a kind
// byte, a varint-encoded payload, and a trailing CRC-32 of everything before
// it.  Encoding the same value always yields the same bytes, decoding is
// allocation-light, and any truncation or bit flip fails the checksum (or a
// bounds check) instead of producing a plausible-looking wrong value.
// Decoding is also canonical: only the encoder's own encoding of a value is
// accepted, so an accepted container re-encodes to exactly its bytes.  The
// codec preserves every field of every event, so a decoded run re-encodes to
// byte-identical JSON under trace.EncodeJSON.

// CodecVersion is the binary format version.  It participates in cache keys,
// so bumping it invalidates every stored entry.
const CodecVersion = 1

// Container kinds.
const (
	// KindRun is a single recorded model.Run.
	KindRun byte = 1
	// KindSystem is an ordered sequence of recorded runs.
	KindSystem byte = 2
	// KindSweep is a SweepRecord.
	KindSweep byte = 3
	// KindExtraction is an ExtractionRecord.
	KindExtraction byte = 4
	// KindSeed is a SeedRecord: one seed's recorded run plus its scored
	// outcome.
	KindSeed byte = 5
	// KindOutcome is a single workload.RunOutcome — the per-seed unit of a
	// binary sweep stream.  Wire-only: outcome containers are framed onto
	// streamed responses, never stored.
	KindOutcome byte = 6
	// KindError is a stream error trailer: the terminal frame of a binary
	// stream whose computation failed after records were already written.
	// Wire-only, like KindOutcome.
	KindError byte = 7
)

var magic = [4]byte{'U', 'D', 'C', CodecVersion}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// writer accumulates one container: newWriter writes the header (magic and
// kind), the encoders append the varint payload, and seal appends the
// checksum in place, so a container is built in one buffer with no copy.
type writer struct {
	buf []byte
}

// headerLen and trailerLen frame every container: magic plus kind byte in
// front, CRC-32C behind.
const (
	headerLen  = len(magic) + 1
	trailerLen = 4
)

// newWriter starts a container of the given kind whose buffer is presized
// for a payload of about payloadHint bytes.
func newWriter(kind byte, payloadHint int) writer {
	w := writer{buf: make([]byte, headerLen, headerLen+payloadHint+trailerLen)}
	copy(w.buf, magic[:])
	w.buf[len(magic)] = kind
	return w
}

// seal finishes the container by appending the CRC-32C of everything
// written so far, and returns it.
func (w *writer) seal() []byte {
	return binary.LittleEndian.AppendUint32(w.buf, crc32.Checksum(w.buf, crcTable))
}

func (w *writer) uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

func (w *writer) svarint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

func (w *writer) int(v int) { w.svarint(int64(v)) }

func (w *writer) bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// reader decodes a varint payload.  The first malformed field latches err and
// every subsequent read returns a zero value, so decode functions only need
// one error check at the end.  When kinds is non-nil, message-kind strings
// are interned through it instead of allocated per message.
type reader struct {
	data  []byte
	pos   int
	err   error
	kinds map[string]string
	// lastKind caches the most recently decoded message kind; consecutive
	// messages of one protocol usually repeat it, so the common case is a
	// short byte comparison instead of a map probe.
	lastKind string
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// uvarint and svarint inline the one- and two-byte cases — event kinds,
// presence masks, counts, and step times up to 16383 — and fall back to the
// full decoder for longer values (and for a two-byte encoding ending in a
// zero byte, which the slow path rejects as non-minimal).

func (r *reader) uvarint() uint64 {
	if r.err == nil && r.pos < len(r.data) {
		if b := r.data[r.pos]; b < 0x80 {
			r.pos++
			return uint64(b)
		} else if r.pos+1 < len(r.data) {
			if b2 := r.data[r.pos+1]; b2 < 0x80 && b2 != 0 {
				r.pos += 2
				return uint64(b&0x7f) | uint64(b2)<<7
			}
		}
	}
	return r.uvarintSlow()
}

func (r *reader) uvarintSlow() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if !r.minimal(n, "uvarint") {
		return 0
	}
	r.pos += n
	return v
}

// minimal validates the length n of the varint at the read position (as
// binary.Uvarint/Varint report it): it must be complete and minimal — a
// longer encoding of a value ends in a zero byte — so every value has one
// encoding.
func (r *reader) minimal(n int, what string) bool {
	if n <= 0 {
		r.fail("store: truncated %s at offset %d", what, r.pos)
		return false
	}
	if n > 1 && r.data[r.pos+n-1] == 0 {
		r.fail("store: non-minimal %s at offset %d", what, r.pos)
		return false
	}
	return true
}

func (r *reader) svarint() int64 {
	if r.err == nil && r.pos < len(r.data) {
		if b := r.data[r.pos]; b < 0x80 {
			r.pos++
			v := int64(b >> 1)
			if b&1 != 0 {
				v = ^v
			}
			return v
		} else if r.pos+1 < len(r.data) {
			if b2 := r.data[r.pos+1]; b2 < 0x80 && b2 != 0 {
				r.pos += 2
				ux := uint64(b&0x7f) | uint64(b2)<<7
				v := int64(ux >> 1)
				if ux&1 != 0 {
					v = ^v
				}
				return v
			}
		}
	}
	return r.svarintSlow()
}

func (r *reader) svarintSlow() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.pos:])
	if !r.minimal(n, "varint") {
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) int() int { return int(r.svarint()) }

// length reads a count that will size an allocation and bounds it by the
// bytes remaining, so corrupt counts cannot force huge allocations.
func (r *reader) length(what string) int {
	v := r.uvarint()
	if r.err == nil && v > uint64(len(r.data)-r.pos) {
		r.fail("store: %s count %d exceeds remaining %d bytes", what, v, len(r.data)-r.pos)
		return 0
	}
	return int(v)
}

func (r *reader) bool() bool {
	if r.err != nil {
		return false
	}
	if r.pos >= len(r.data) {
		r.fail("store: truncated bool at offset %d", r.pos)
		return false
	}
	b := r.data[r.pos]
	if b > 1 {
		r.fail("store: bool byte %d at offset %d", b, r.pos)
		return false
	}
	r.pos++
	return b == 1
}

func (r *reader) str() string {
	n := r.length("string")
	if r.err != nil {
		return ""
	}
	s := string(r.data[r.pos : r.pos+n])
	r.pos += n
	return s
}

// kindStr reads a string through the reader's intern table, so decoding
// thousands of messages drawn from a handful of protocol kinds allocates each
// kind string once rather than once per message.  The m[string(b)] lookup
// compiles to a no-allocation map probe.  With no table attached it behaves
// exactly like str.
func (r *reader) kindStr() string {
	n := r.length("string")
	if r.err != nil || n == 0 {
		return ""
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	if string(b) == r.lastKind && r.lastKind != "" {
		return r.lastKind
	}
	if r.kinds == nil {
		return string(b)
	}
	s, ok := r.kinds[string(b)]
	if !ok {
		s = string(b)
		r.kinds[s] = s
	}
	r.lastKind = s
	return s
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.data) {
		return fmt.Errorf("store: %d trailing bytes after payload", len(r.data)-r.pos)
	}
	return nil
}

// unseal verifies the container framing and returns the payload.
func unseal(data []byte, wantKind byte) ([]byte, error) {
	if err := Check(data); err != nil {
		return nil, err
	}
	if data[4] != wantKind {
		return nil, fmt.Errorf("store: container kind %d, want %d", data[4], wantKind)
	}
	return data[headerLen : len(data)-trailerLen], nil
}

// Check verifies the container framing — magic, version, a known kind and the
// trailing checksum — without decoding the payload.  It is what the on-disk
// store uses to detect corrupt or truncated entries.
func Check(data []byte) error {
	if len(data) < headerLen+trailerLen {
		return fmt.Errorf("store: container truncated to %d bytes", len(data))
	}
	if [4]byte(data[:4]) != magic {
		return fmt.Errorf("store: bad magic %q (version mismatch or not a store container)", data[:4])
	}
	if kind := data[4]; kind < KindRun || kind > KindError {
		return fmt.Errorf("store: unknown container kind %d", kind)
	}
	body, tail := data[:len(data)-trailerLen], data[len(data)-trailerLen:]
	if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(tail); got != want {
		return fmt.Errorf("store: checksum mismatch (got %08x, want %08x)", got, want)
	}
	return nil
}

// Kind returns the container kind byte of a framed blob, or an error if the
// framing is invalid.
func Kind(data []byte) (byte, error) {
	if err := Check(data); err != nil {
		return 0, err
	}
	return data[4], nil
}

// KindName names a container kind for human-facing output (the corpus census
// groups entries by it).  Unknown bytes render as "unknown".
func KindName(kind byte) string {
	switch kind {
	case KindRun:
		return "run"
	case KindSystem:
		return "system"
	case KindSweep:
		return "sweep"
	case KindExtraction:
		return "extraction"
	case KindSeed:
		return "seed"
	case KindOutcome:
		return "outcome"
	case KindError:
		return "error"
	}
	return "unknown"
}

// --- model value encoding -------------------------------------------------

// Field-presence masks keep non-message events to a couple of bytes each
// while still preserving every field exactly (required for byte-identical
// JSON round trips even on events that carry unusual field combinations).
// A mask has a bit exactly for each non-zero field, and a present message or
// report is never empty, so the reader rejects a mask with unknown bits, an
// empty nested mask, or a present field that decodes as zero.  Together with
// minimal varints and 0/1 bools this makes decoding canonical: each value has
// one encoding, and an accepted container re-encodes to its own bytes.

func (w *writer) action(a model.ActionID) {
	w.svarint(int64(a.Initiator))
	w.int(a.Seq)
}

func (r *reader) action() model.ActionID {
	return model.ActionID{Initiator: model.ProcID(r.svarint()), Seq: r.int()}
}

// nonCanonical latches the error for a value whose encoding is not the one
// the encoder writes.  Callers test first, keeping the hot path call-free.
func (r *reader) nonCanonical(what string, mask uint64) {
	r.fail("store: non-canonical %s (mask %#x) before offset %d", what, mask, r.pos)
}

func (w *writer) message(m *model.Message) {
	var mask uint64
	if m.Kind != "" {
		mask |= 1 << 0
	}
	if !m.Action.IsZero() {
		mask |= 1 << 1
	}
	if m.Round != 0 {
		mask |= 1 << 2
	}
	if m.Phase != 0 {
		mask |= 1 << 3
	}
	if m.Value != 0 {
		mask |= 1 << 4
	}
	if m.Aux != 0 {
		mask |= 1 << 5
	}
	if m.Suspects != 0 {
		mask |= 1 << 6
	}
	if m.KnownCrashed != 0 {
		mask |= 1 << 7
	}
	if m.KnownInits {
		mask |= 1 << 8
	}
	w.uvarint(mask)
	if mask&(1<<0) != 0 {
		w.str(m.Kind)
	}
	if mask&(1<<1) != 0 {
		w.action(m.Action)
	}
	if mask&(1<<2) != 0 {
		w.int(m.Round)
	}
	if mask&(1<<3) != 0 {
		w.int(m.Phase)
	}
	if mask&(1<<4) != 0 {
		w.int(m.Value)
	}
	if mask&(1<<5) != 0 {
		w.int(m.Aux)
	}
	if mask&(1<<6) != 0 {
		w.uvarint(uint64(m.Suspects))
	}
	if mask&(1<<7) != 0 {
		w.uvarint(uint64(m.KnownCrashed))
	}
	// KnownInits is fully carried by its mask bit.
}

// messageInto decodes a message into *m, which must be zero on entry;
// writing through the pointer keeps the hot decode loop free of large struct
// copies.
func (r *reader) messageInto(m *model.Message) {
	mask := r.uvarint()
	ok := mask != 0 && mask < 1<<9
	if mask&(1<<0) != 0 {
		m.Kind = r.kindStr()
		ok = ok && m.Kind != ""
	}
	if mask&(1<<1) != 0 {
		m.Action = r.action()
		ok = ok && !m.Action.IsZero()
	}
	if mask&(1<<2) != 0 {
		m.Round = r.int()
		ok = ok && m.Round != 0
	}
	if mask&(1<<3) != 0 {
		m.Phase = r.int()
		ok = ok && m.Phase != 0
	}
	if mask&(1<<4) != 0 {
		m.Value = r.int()
		ok = ok && m.Value != 0
	}
	if mask&(1<<5) != 0 {
		m.Aux = r.int()
		ok = ok && m.Aux != 0
	}
	if mask&(1<<6) != 0 {
		m.Suspects = model.ProcSet(r.uvarint())
		ok = ok && m.Suspects != 0
	}
	if mask&(1<<7) != 0 {
		m.KnownCrashed = model.ProcSet(r.uvarint())
		ok = ok && m.KnownCrashed != 0
	}
	m.KnownInits = mask&(1<<8) != 0
	if !ok {
		r.nonCanonical("message", mask)
	}
}

func (w *writer) report(rep *model.SuspectReport) {
	var mask uint64
	if rep.Suspects != 0 {
		mask |= 1 << 0
	}
	if rep.Generalized {
		mask |= 1 << 1
	}
	if rep.Group != 0 {
		mask |= 1 << 2
	}
	if rep.MinFaulty != 0 {
		mask |= 1 << 3
	}
	if rep.CorrectReport {
		mask |= 1 << 4
	}
	if rep.Correct != 0 {
		mask |= 1 << 5
	}
	w.uvarint(mask)
	if mask&(1<<0) != 0 {
		w.uvarint(uint64(rep.Suspects))
	}
	if mask&(1<<2) != 0 {
		w.uvarint(uint64(rep.Group))
	}
	if mask&(1<<3) != 0 {
		w.int(rep.MinFaulty)
	}
	if mask&(1<<5) != 0 {
		w.uvarint(uint64(rep.Correct))
	}
}

// reportInto decodes a suspect report into *rep, which must be zero on entry.
func (r *reader) reportInto(rep *model.SuspectReport) {
	mask := r.uvarint()
	ok := mask != 0 && mask < 1<<6
	if mask&(1<<0) != 0 {
		rep.Suspects = model.ProcSet(r.uvarint())
		ok = ok && rep.Suspects != 0
	}
	rep.Generalized = mask&(1<<1) != 0
	if mask&(1<<2) != 0 {
		rep.Group = model.ProcSet(r.uvarint())
		ok = ok && rep.Group != 0
	}
	if mask&(1<<3) != 0 {
		rep.MinFaulty = r.int()
		ok = ok && rep.MinFaulty != 0
	}
	rep.CorrectReport = mask&(1<<4) != 0
	if mask&(1<<5) != 0 {
		rep.Correct = model.ProcSet(r.uvarint())
		ok = ok && rep.Correct != 0
	}
	if !ok {
		r.nonCanonical("report", mask)
	}
}

func (w *writer) event(e *model.Event) {
	var mask uint64
	if e.Peer != 0 {
		mask |= 1 << 0
	}
	hasMsg := e.Msg != (model.Message{})
	if hasMsg {
		mask |= 1 << 1
	}
	if !e.Action.IsZero() {
		mask |= 1 << 2
	}
	hasReport := e.Report != (model.SuspectReport{})
	if hasReport {
		mask |= 1 << 3
	}
	w.uvarint(uint64(e.Kind))
	w.uvarint(mask)
	if mask&(1<<0) != 0 {
		w.svarint(int64(e.Peer))
	}
	if hasMsg {
		w.message(&e.Msg)
	}
	if mask&(1<<2) != 0 {
		w.action(e.Action)
	}
	if hasReport {
		w.report(&e.Report)
	}
}

// eventInto decodes an event into *e, which must be zero on entry; the
// decode loop works through pointers into the destination slab so no event,
// message or report struct is ever returned by value.
func (r *reader) eventInto(e *model.Event) {
	e.Kind = model.EventKind(r.uvarint())
	mask := r.uvarint()
	ok := mask < 1<<4
	if mask&(1<<0) != 0 {
		e.Peer = model.ProcID(r.svarint())
		ok = ok && e.Peer != 0
	}
	if mask&(1<<1) != 0 {
		r.messageInto(&e.Msg)
	}
	if mask&(1<<2) != 0 {
		e.Action = r.action()
		ok = ok && !e.Action.IsZero()
	}
	if mask&(1<<3) != 0 {
		r.reportInto(&e.Report)
	}
	if !ok {
		r.nonCanonical("event", mask)
	}
}

func (w *writer) run(r *model.Run) {
	w.int(r.N)
	w.int(r.Horizon)
	for _, evs := range r.Events {
		w.uvarint(uint64(len(evs)))
		for i := range evs {
			w.int(evs[i].Time)
			w.event(&evs[i].Event)
		}
	}
}

// runSizeHint estimates a run's encoded size from its event count, so an
// encoder's buffer is allocated once at about its final size.
func runSizeHint(r *model.Run) int {
	return 8 + 2*r.N + bytesPerEventHint*r.EventCount()
}

// bytesPerEventHint slightly exceeds the mean encoded event size of the
// catalogued scenarios (10 to 14.3 bytes, dominated by message-carrying sends
// and receives), so the buffer rarely regrows and wastes little.
const bytesPerEventHint = 15

// outcomeSizeHint covers one encoded per-seed outcome without violations
// (seed, eleven simulator counters and two latency sums take about 35
// bytes); the rare violation text regrows the buffer.
const outcomeSizeHint = 48

// EncodeRun serialises one recorded run.
func EncodeRun(run *model.Run) []byte {
	w := newWriter(KindRun, runSizeHint(run))
	w.run(run)
	return w.seal()
}

// DecodeRun deserialises a run encoded by EncodeRun, validating the container
// framing, the payload bounds, and — like trace.DecodeJSON — the run's
// structural invariants, so a well-framed container holding an impossible run
// shape (negative horizon, non-monotone event times) is rejected rather than
// handed to the evaluators.  The returned run is an independent compact copy;
// decoding goes through the shared decoder pool, so repeated calls reuse warm
// buffers and intern message kinds.
func DecodeRun(data []byte) (*model.Run, error) {
	return DecodeRunInto(nil, data)
}

// DecodeRunInto is DecodeRun with the owning copy carved from arena instead
// of freshly allocated, so a loop that decodes batches and resets the arena
// between them amortises the clone allocations away.  A nil arena falls back
// to CompactClone.
func DecodeRunInto(arena *model.CloneArena, data []byte) (*model.Run, error) {
	d := Decoders.Get()
	defer Decoders.Put(d)
	run, err := d.DecodeRun(data)
	if err != nil {
		return nil, err
	}
	return cloneRun(arena, run), nil
}

// cloneRun takes an owning copy of a transient run, through the arena when
// one is supplied.
func cloneRun(arena *model.CloneArena, run *model.Run) *model.Run {
	if arena != nil {
		return arena.Clone(run)
	}
	return run.CompactClone()
}

// EncodeSystem serialises an ordered sequence of recorded runs.
func EncodeSystem(runs model.System) []byte {
	hint := binary.MaxVarintLen64
	for _, run := range runs {
		hint += runSizeHint(run)
	}
	w := newWriter(KindSystem, hint)
	w.uvarint(uint64(len(runs)))
	for _, run := range runs {
		w.run(run)
	}
	return w.seal()
}

// DecodeSystem deserialises a sequence encoded by EncodeSystem.  The runs
// share one internal arena's slabs, so an N-run system costs a few chunk
// allocations instead of 3N clone allocations.
func DecodeSystem(data []byte) (model.System, error) {
	return DecodeSystemInto(model.NewCloneArena(), data)
}

// DecodeSystemInto is DecodeSystem with the owning copies carved from arena;
// the runs stay valid until the arena is Reset.
func DecodeSystemInto(arena *model.CloneArena, data []byte) (model.System, error) {
	payload, err := unseal(data, KindSystem)
	if err != nil {
		return nil, err
	}
	d := Decoders.Get()
	defer Decoders.Put(d)
	r := reader{data: payload, kinds: d.internTable()}
	count := r.length("run")
	if r.err != nil {
		return nil, r.err
	}
	runs := make(model.System, count)
	for i := range runs {
		// The transient run aliases d's buffers, which the next iteration
		// reuses, so each element is compacted into owned storage here.
		if transient := r.runInto(d); transient != nil {
			runs[i] = cloneRun(arena, transient)
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	for i, run := range runs {
		if err := trace.ValidateStructure(run); err != nil {
			return nil, fmt.Errorf("run %d: %w", i, err)
		}
	}
	return runs, nil
}

func (w *writer) violations(vs []model.Violation) {
	w.uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.str(v.Rule)
		w.str(v.Detail)
	}
}

func (r *reader) violations() []model.Violation {
	count := r.length("violation")
	if r.err != nil || count == 0 {
		return nil
	}
	vs := make([]model.Violation, count)
	for i := range vs {
		vs[i] = model.Violation{Rule: r.str(), Detail: r.str()}
	}
	return vs
}
