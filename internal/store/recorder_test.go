package store_test

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/workload"
)

// recorderScenarios are Table 1 cells, one per protocol family.
var recorderScenarios = []string{"prop2.3-nudc", "prop2.4-reliable-udc", "prop3.1-strong-udc", "prop4.1-tuseful-udc", "cor4.2-quorum-udc"}

// TestSeedRecorderMatchesFreshRuns pins the worker-side encode against the
// reference path: whatever the worker count, each record RunAll's workers
// encode from their engines' reused views is byte-identical to the record of
// a fresh engine's owned run, and the runs a keepRun hook retains still
// equal fresh runs once the pass (and its engines) are gone.
func TestSeedRecorderMatchesFreshRuns(t *testing.T) {
	seeds := workload.Seeds(11, 5)
	var tasks []workload.Task
	for _, name := range recorderScenarios {
		sc := registry.MustScenario(name)
		tasks = append(tasks,
			workload.Task{Spec: sc.Spec, Seeds: seeds, Eval: sc.Eval, OnSeed: store.SeedRecorder(true, false)},
			workload.Task{Spec: sc.Spec, Seeds: seeds[:2], OnSeed: store.SeedRecorder(false, true)})
	}
	for _, workers := range []int{1, 2, 8} {
		ran, err := workload.Runner{Workers: workers}.RunAll(tasks)
		if err != nil {
			t.Fatal(err)
		}
		for ti, task := range tasks {
			scored := task.Eval != nil
			for si, seed := range task.Seeds {
				fresh, err := workload.Execute(task.Spec, seed)
				if err != nil {
					t.Fatal(err)
				}
				want := workload.SeedRun{Outcome: workload.RunOutcome{Seed: seed, Stats: fresh.Stats}, Run: fresh.Run}
				if scored {
					want.Outcome = workload.ScoreRun(fresh, seed, task.Eval)
				}
				got := ran[ti][si]
				if !bytes.Equal(got.Record, store.EncodeSeedRecord(store.NewSeedRecord(want, scored))) {
					t.Fatalf("workers=%d %s seed %d: worker-encoded record differs from a fresh run's", workers, task.Spec.Name, seed)
				}
				if !reflect.DeepEqual(got.Outcome, want.Outcome) {
					t.Fatalf("workers=%d %s seed %d: outcome differs", workers, task.Spec.Name, seed)
				}
				if scored {
					if got.Run != nil {
						t.Fatalf("workers=%d %s seed %d: sweep pass kept a run", workers, task.Spec.Name, seed)
					}
				} else if !reflect.DeepEqual(got.Run, fresh.Run) {
					t.Fatalf("workers=%d %s seed %d: kept run differs from a fresh run", workers, task.Spec.Name, seed)
				}
			}
		}
	}
}

// TestSweepPathAllocsPerSeed bounds what the sweep path allocates per seed
// once a worker's engine is warm: simulating, scoring and encoding a seed
// into its record costs less than twice the record's size (plus a fixed
// allowance for per-run set-up that does not grow with the run — the
// workload's seeded generator alone is 4.9 KB — which only matters for
// prop2.4's 122-event runs), so no event slab is allocated per seed.  Each
// pass repeats one seed, so the engine's buffers reach their high-water mark
// on the first copy, and differencing a short and a long pass cancels that
// per-pass set-up.
func TestSweepPathAllocsPerSeed(t *testing.T) {
	const perRunAllowance = 16 << 10
	for _, name := range recorderScenarios {
		sc := registry.MustScenario(name)
		pass := func(copies int) (allocated uint64, record int) {
			seeds := make([]int64, copies)
			for i := range seeds {
				seeds[i] = 5
			}
			task := workload.Task{Spec: sc.Spec, Seeds: seeds, Eval: sc.Eval, OnSeed: store.SeedRecorder(true, false)}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ran, err := workload.Runner{Workers: 1}.RunAll([]workload.Task{task})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			return after.TotalAlloc - before.TotalAlloc, len(ran[0][0].Record)
		}
		const short, long = 2, 12
		allocShort, _ := pass(short)
		allocLong, record := pass(long)
		perSeed := float64(int64(allocLong)-int64(allocShort)) / (long - short)
		if bound := float64(2*record + perRunAllowance); perSeed >= bound {
			t.Errorf("%s: sweep path allocates %.0f bytes per seed, want < %.0f (2x its %d-byte record + %d)", name, perSeed, bound, record, perRunAllowance)
		}
	}
}
