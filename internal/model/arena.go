package model

import (
	"fmt"
	"slices"
)

// RunArena is a reusable struct-of-arrays builder for recorded runs.  Events
// from all processes append into one pair of parallel slabs (owning process,
// timed event) in arrival order; Build regroups them into a Run whose
// per-process histories are spans of a single contiguous slab.  Resetting the
// arena keeps the slabs, so a loop that records many runs through one arena
// (the simulator's sweep loop, a decoder draining a batch) performs no
// per-event allocation once the slabs have grown to the workload's high-water
// mark.
//
// An arena enforces the same per-process invariants as Run.Append — monotone
// times (R2) and crash finality (R4) — so a Run built from it is always
// structurally valid.  Arenas are not safe for concurrent use.
type RunArena struct {
	n       int
	horizon int
	// procs[i] is the process whose history events[i] belongs to.  Within one
	// process, events appear in append (hence time) order.
	procs  []ProcID
	events []TimedEvent
	// counts, lastTime and crashed track each process's history tail for the
	// R2/R4 checks without touching the slabs.
	counts   []int32
	lastTime []int32
	crashed  []bool
	// cursors is the regrouping scratch of Build and View.
	cursors []int32
	// viewSlab, viewSpans and view back View's regrouped run; they are
	// reused across runs like the append slabs.
	viewSlab  []TimedEvent
	viewSpans [][]TimedEvent
	view      Run
}

// NewRunArena returns an empty arena ready for Reset.
func NewRunArena() *RunArena { return &RunArena{} }

// Reset prepares the arena to record a fresh run over n processes, retaining
// the slabs of earlier runs.  capHint pre-sizes the event slabs (total events
// across all processes) on first use; later resets keep whatever capacity has
// accumulated.
func (a *RunArena) Reset(n, capHint int) {
	a.n = n
	a.horizon = 0
	if cap(a.events) < capHint {
		a.events = make([]TimedEvent, 0, capHint)
		a.procs = make([]ProcID, 0, capHint)
	} else {
		a.events = a.events[:0]
		a.procs = a.procs[:0]
	}
	if cap(a.counts) < n {
		a.counts = make([]int32, n)
		a.lastTime = make([]int32, n)
		a.crashed = make([]bool, n)
		a.cursors = make([]int32, n)
	} else {
		a.counts = a.counts[:n]
		a.lastTime = a.lastTime[:n]
		a.crashed = a.crashed[:n]
		a.cursors = a.cursors[:n]
		for p := 0; p < n; p++ {
			a.counts[p] = 0
			a.lastTime[p] = 0
			a.crashed[p] = false
		}
	}
}

// N returns the process count of the run under construction.
func (a *RunArena) N() int { return a.n }

// Len returns the number of events recorded since the last Reset.
func (a *RunArena) Len() int { return len(a.events) }

// Append records that event *e occurred at process p at global time t, under
// the same invariants as Run.Append.  The event is copied once, straight into
// the slab.
func (a *RunArena) Append(p ProcID, t int, e *Event) error {
	if int(p) < 0 || int(p) >= a.n {
		return fmt.Errorf("append: process %d out of range [0,%d)", p, a.n)
	}
	if t < 0 {
		return fmt.Errorf("append: negative time %d", t)
	}
	if a.counts[p] > 0 {
		if t < int(a.lastTime[p]) {
			return fmt.Errorf("append: time %d before last event time %d at process %d", t, a.lastTime[p], p)
		}
		if a.crashed[p] {
			return fmt.Errorf("append: process %d already crashed (R4)", p)
		}
	}
	a.procs = append(a.procs, p)
	a.events = slices.Grow(a.events, 1)
	a.events = a.events[:len(a.events)+1]
	te := &a.events[len(a.events)-1]
	te.Time = t
	te.Event = *e
	a.counts[p]++
	a.lastTime[p] = int32(t)
	a.crashed[p] = e.Kind == EventCrash
	if t > a.horizon {
		a.horizon = t
	}
	return nil
}

// SetHorizon extends the horizon of the run under construction to at least t.
func (a *RunArena) SetHorizon(t int) {
	if t > a.horizon {
		a.horizon = t
	}
}

// Horizon returns the horizon of the run under construction.
func (a *RunArena) Horizon() int { return a.horizon }

// Build regroups the recorded events into a freshly allocated Run: one
// contiguous slab of events ordered by process, with Events[p] a span of that
// slab.  The returned run shares nothing with the arena, so it stays valid
// across later Resets.  The spans are capacity-clipped, so appending to one
// reallocates instead of clobbering its neighbour.  Build performs three
// allocations regardless of event count.
func (a *RunArena) Build() *Run {
	slab := make([]TimedEvent, len(a.events))
	events := make([][]TimedEvent, a.n)
	a.group(slab, events)
	return &Run{N: a.n, Horizon: a.horizon, Events: events}
}

// View regroups the recorded events like Build, but into a slab and span
// table the arena owns and reuses, so viewing a run allocates nothing once
// the arena is warm.  The returned run aliases the arena: it is valid only
// until the next Reset or View, and callers that retain it must take a
// CompactClone first.
func (a *RunArena) View() *Run {
	if cap(a.viewSlab) < len(a.events) {
		a.viewSlab = make([]TimedEvent, len(a.events), cap(a.events))
	}
	if cap(a.viewSpans) < a.n {
		a.viewSpans = make([][]TimedEvent, a.n)
	}
	a.viewSlab = a.viewSlab[:len(a.events)]
	a.viewSpans = a.viewSpans[:a.n]
	a.group(a.viewSlab, a.viewSpans)
	a.view = Run{N: a.n, Horizon: a.horizon, Events: a.viewSpans}
	return &a.view
}

// group performs the counting-sort pass shared by Build and View: slab
// receives the events grouped by process (stable, so per-process time order
// is preserved), and events[p] becomes the p'th span.  Every slot of slab is
// overwritten, so a reused slab needs no clearing.
func (a *RunArena) group(slab []TimedEvent, events [][]TimedEvent) {
	off := int32(0)
	for p := 0; p < a.n; p++ {
		a.cursors[p] = off
		off += a.counts[p]
	}
	for i, p := range a.procs {
		slab[a.cursors[p]] = a.events[i]
		a.cursors[p]++
	}
	off = 0
	for p := 0; p < a.n; p++ {
		end := off + a.counts[p]
		events[p] = slab[off:end:end]
		off = end
	}
}

// CompactClone returns a deep copy of the run whose per-process histories are
// spans of one contiguous slab, in three allocations regardless of event
// count.  It is the owning counterpart of a transient decode: cloning a run
// that aliases reusable buffers yields one that outlives them.
func (r *Run) CompactClone() *Run {
	total := 0
	for _, evs := range r.Events {
		total += len(evs)
	}
	slab := make([]TimedEvent, 0, total)
	events := make([][]TimedEvent, len(r.Events))
	for p, evs := range r.Events {
		off := len(slab)
		slab = append(slab, evs...)
		end := len(slab)
		events[p] = slab[off:end:end]
	}
	return &Run{N: r.N, Horizon: r.Horizon, Events: events}
}
