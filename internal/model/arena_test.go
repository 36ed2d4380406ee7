package model

import (
	"reflect"
	"testing"
)

// buildBoth appends the same (proc, time, event) sequence to a fresh Run and
// through an arena, returning both.
func buildBoth(t *testing.T, n int, appends []struct {
	p  ProcID
	tm int
	e  Event
}) (*Run, *Run) {
	t.Helper()
	direct := NewRunCap(n, 4)
	arena := NewRunArena()
	arena.Reset(n, 4)
	for _, a := range appends {
		if err := direct.Append(a.p, a.tm, a.e); err != nil {
			t.Fatalf("direct append: %v", err)
		}
		if err := arena.Append(a.p, a.tm, &a.e); err != nil {
			t.Fatalf("arena append: %v", err)
		}
	}
	return direct, arena.Build()
}

func TestArenaBuildMatchesRunAppend(t *testing.T) {
	appends := []struct {
		p  ProcID
		tm int
		e  Event
	}{
		{0, 0, Event{Kind: EventInit, Action: Action(0, 0)}},
		{1, 1, Event{Kind: EventRecv, Peer: 0, Msg: Message{Kind: "alpha", Round: 1}}},
		{0, 1, Event{Kind: EventSend, Peer: 1, Msg: Message{Kind: "alpha", Round: 1}}},
		{2, 2, Event{Kind: EventCrash}},
		{0, 3, Event{Kind: EventDo, Action: Action(0, 0)}},
		{1, 3, Event{Kind: EventSuspect, Report: SuspectReport{Suspects: Singleton(2)}}},
	}
	direct, built := buildBoth(t, 3, appends)
	if !reflect.DeepEqual(direct, built) {
		t.Fatalf("arena build differs from direct appends:\n%+v\nvs\n%+v", direct, built)
	}
}

func TestArenaEnforcesRunInvariants(t *testing.T) {
	a := NewRunArena()
	a.Reset(2, 0)
	if err := a.Append(5, 1, &Event{Kind: EventInit}); err == nil {
		t.Fatal("out-of-range process accepted")
	}
	if err := a.Append(0, -1, &Event{Kind: EventInit}); err == nil {
		t.Fatal("negative time accepted")
	}
	if err := a.Append(0, 3, &Event{Kind: EventInit}); err != nil {
		t.Fatal(err)
	}
	if err := a.Append(0, 2, &Event{Kind: EventInit}); err == nil {
		t.Fatal("non-monotone time accepted (R2)")
	}
	if err := a.Append(0, 4, &Event{Kind: EventCrash}); err != nil {
		t.Fatal(err)
	}
	if err := a.Append(0, 5, &Event{Kind: EventInit}); err == nil {
		t.Fatal("append after crash accepted (R4)")
	}
	// The other process is unaffected by p0's crash.
	if err := a.Append(1, 1, &Event{Kind: EventInit}); err != nil {
		t.Fatal(err)
	}
}

func TestArenaResetIsolatesRuns(t *testing.T) {
	a := NewRunArena()
	a.Reset(2, 0)
	if err := a.Append(0, 1, &Event{Kind: EventCrash}); err != nil {
		t.Fatal(err)
	}
	a.SetHorizon(10)
	first := a.Build()

	a.Reset(2, 0)
	if err := a.Append(0, 2, &Event{Kind: EventInit}); err != nil {
		t.Fatalf("crash state leaked across Reset: %v", err)
	}
	if err := a.Append(1, 0, &Event{Kind: EventInit}); err != nil {
		t.Fatal(err)
	}
	second := a.Build()

	if first.Horizon != 10 || first.EventCount() != 1 || first.Events[0][0].Event.Kind != EventCrash {
		t.Fatalf("first build mutated by reuse: %+v", first)
	}
	if second.Horizon != 2 || second.EventCount() != 2 {
		t.Fatalf("second build wrong: %+v", second)
	}
}

func TestArenaSpansAreCapacityClipped(t *testing.T) {
	a := NewRunArena()
	a.Reset(2, 0)
	for _, app := range []struct {
		p  ProcID
		tm int
	}{{0, 1}, {1, 1}, {0, 2}} {
		if err := a.Append(app.p, app.tm, &Event{Kind: EventInit}); err != nil {
			t.Fatal(err)
		}
	}
	run := a.Build()
	before := run.Events[1][0]
	// Appending to p0's span must reallocate, not clobber p1's first event.
	_ = append(run.Events[0], TimedEvent{Time: 9, Event: Event{Kind: EventDo}})
	if run.Events[1][0] != before {
		t.Fatal("append to one span clobbered the next process's events")
	}
}

func TestArenaBuildAllocsConstant(t *testing.T) {
	a := NewRunArena()
	record := func(events int) {
		a.Reset(2, 0)
		for i := 0; i < events; i++ {
			if err := a.Append(ProcID(i%2), i/2, &Event{Kind: EventInit}); err != nil {
				t.Fatal(err)
			}
		}
	}
	record(1024) // grow the slabs to the high-water mark
	allocs := testing.AllocsPerRun(20, func() {
		record(1024)
		_ = a.Build()
	})
	// Build allocates the run, the slab and the span table; the recording loop
	// itself allocates nothing once the slabs are grown.
	if allocs > 3 {
		t.Fatalf("arena record+build allocated %.1f times per run, want <= 3", allocs)
	}
}

// TestArenaViewMatchesBuild pins that View regroups exactly like Build, that
// a reused view slab carries nothing over from a larger earlier run, and that
// viewing a warm arena allocates nothing.
func TestArenaViewMatchesBuild(t *testing.T) {
	a := NewRunArena()
	record := func(n, events int) {
		a.Reset(n, 0)
		for i := 0; i < events; i++ {
			e := Event{Kind: EventSend, Peer: ProcID((i + 1) % n), Msg: Message{Kind: "alpha", Round: i}}
			if err := a.Append(ProcID(i%n), i/n, &e); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []struct{ n, events int }{{3, 300}, {2, 7}, {4, 0}, {3, 41}} {
		record(c.n, c.events)
		built := a.Build()
		if view := a.View(); !reflect.DeepEqual(view, built) {
			t.Fatalf("n=%d events=%d: view differs from build:\n%+v\nvs\n%+v", c.n, c.events, view, built)
		}
	}
	record(3, 300)
	allocs := testing.AllocsPerRun(20, func() {
		record(3, 300)
		_ = a.View()
	})
	if allocs > 0 {
		t.Fatalf("arena record+view allocated %.1f times per run, want 0", allocs)
	}
}

func TestCompactCloneEqualsClone(t *testing.T) {
	r := NewRun(3)
	if err := r.Append(0, 1, Event{Kind: EventSend, Peer: 2, Msg: Message{Kind: "alpha"}}); err != nil {
		t.Fatal(err)
	}
	if err := r.Append(2, 3, Event{Kind: EventCrash}); err != nil {
		t.Fatal(err)
	}
	r.SetHorizon(7)
	cp := r.CompactClone()
	if cp.N != r.N || cp.Horizon != r.Horizon || !reflect.DeepEqual(cp.Events[0], r.Events[0]) || !reflect.DeepEqual(cp.Events[2], r.Events[2]) {
		t.Fatalf("compact clone differs: %+v vs %+v", cp, r)
	}
	// Deep: mutating the clone must not touch the original.
	cp.Events[0][0].Time = 99
	if r.Events[0][0].Time == 99 {
		t.Fatal("compact clone shares memory with the original")
	}
}
