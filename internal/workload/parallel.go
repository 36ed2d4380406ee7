package workload

import (
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/sim"
)

// Task pairs a scenario with the seeds to sweep and the evaluator to apply.
// A nil Eval means simulate-only: the runs are wanted (an extraction source,
// a corpus fill) but no property is scored.
type Task struct {
	Spec  Spec
	Seeds []int64
	Eval  Evaluator
	// OnSeed, when set, finishes each seed on the worker that simulated it,
	// while the run is still hot: RunAll calls it with the seed's scored
	// SeedRun, whose Run is a view of the worker's engine valid only during
	// the call.  The hook typically encodes the run into sr.Record (it is a
	// hook because the codec lives in a package that imports this one).  To
	// keep the run beyond the call it replaces sr.Run with an owned copy
	// (CompactClone); a run left aliasing the engine is dropped.  A nil
	// OnSeed keeps every run as an owned copy.
	OnSeed func(sr *SeedRun)
}

// SeedRun is the seed-granular result of a task: the scored outcome (zero
// violations/latency fields when the task had no evaluator), the encoded
// record the task's OnSeed hook produced, if any, and the recorded run when
// the task kept it.  It is the unit the run corpus persists.
type SeedRun struct {
	Outcome RunOutcome
	// Record is the bytes OnSeed encoded for this seed (nil without a hook).
	Record []byte
	// Run is the recorded run, owned by the caller, or nil when the task's
	// OnSeed hook did not keep it.
	Run *model.Run
}

// Runner sweeps scenarios over a pool of worker goroutines, each owning one
// sim.Engine.  Work is distributed at (task, seed) granularity and every
// outcome is written to its (task, seed) slot, so the aggregated SweepResults
// are identical to the serial Sweep's for the same inputs no matter how many
// workers run or how the scheduler interleaves them.
type Runner struct {
	// Workers is the pool size; zero or negative means runtime.GOMAXPROCS(0).
	Workers int
}

// each runs fn(i) for i in [0, n) over the runner's worker pool (the shared
// slot-indexed loop of internal/pool), for stages that need no per-worker
// state.
func (r Runner) each(n int, fn func(i int)) {
	pool.Each(r.Workers, n, fn)
}

// eachWithEngine is each with one sim.Engine owned per worker, for stages
// that execute simulations.  Recorded results are independent of an engine's
// prior runs, so sharing an engine within a worker does not affect slots.
// Simulation stages are also where the Fleet gauges move: seeds become
// in-flight when the pass admits them and drain as each finishes, and a
// worker counts as busy exactly while it executes.
func (r Runner) eachWithEngine(n int, fn func(eng *sim.Engine, i int)) {
	Fleet.ActivePasses.Add(1)
	Fleet.InflightSeeds.Add(int64(n))
	defer Fleet.ActivePasses.Add(-1)
	pool.EachSlot(r.Workers, n, sim.NewEngine, func(eng *sim.Engine, i int) {
		Fleet.BusyWorkers.Add(1)
		fn(eng, i)
		Fleet.BusyWorkers.Add(-1)
		Fleet.InflightSeeds.Add(-1)
	})
}

// Sweep runs one scenario for every seed, in parallel, and aggregates the
// outcomes in seed order.
func (r Runner) Sweep(spec Spec, seeds []int64, eval Evaluator) (SweepResult, error) {
	results, err := r.SweepAll([]Task{{Spec: spec, Seeds: seeds, Eval: eval}})
	if err != nil {
		return SweepResult{}, err
	}
	return results[0], nil
}

// SweepAll runs every task's (spec, seed) pairs over the worker pool and
// returns one SweepResult per task, with outcomes in seed order.  It is
// RunAll keeping no runs (any OnSeed hook is replaced), so scoring happens
// on the workers' reused views and no run is ever copied out.  On failure it
// returns the error of the earliest (task, seed) pair, matching the serial
// path's first-error semantics.
func (r Runner) SweepAll(tasks []Task) ([]SweepResult, error) {
	scoreOnly := make([]Task, len(tasks))
	for i, t := range tasks {
		t.OnSeed = dropRun
		scoreOnly[i] = t
	}
	runs, err := r.RunAll(scoreOnly)
	if err != nil {
		return nil, err
	}
	results := make([]SweepResult, len(tasks))
	for ti, t := range tasks {
		outcomes := make([]RunOutcome, len(runs[ti]))
		for si := range runs[ti] {
			outcomes[si] = runs[ti][si].Outcome
		}
		results[ti] = SweepResult{Spec: t.Spec, Outcomes: outcomes}
	}
	return results, nil
}

// dropRun is the OnSeed hook of a score-only pass.
func dropRun(*SeedRun) {}

// RunAll distributes every task's (spec, seed) pairs over one worker pool
// and lands each seed's SeedRun in its slot; tasks with a nil evaluator are
// simulated but not scored.  Each worker simulates into its engine's reused
// arena and finishes the seed there — scoring it and running the task's
// OnSeed hook on a view of the run — so a pass that keeps no runs copies no
// run out of the engines.  It is the serving layer's workhorse (the hook
// encodes each seed's corpus record on the worker), and its outcomes are
// byte-identical to the serial Sweep's (both funnel through ScoreRun).  On
// failure it returns the error of the earliest (task, seed) pair.
func (r Runner) RunAll(tasks []Task) ([][]SeedRun, error) {
	type job struct{ task, seed int }
	var jobs []job
	for ti, t := range tasks {
		for si := range t.Seeds {
			jobs = append(jobs, job{task: ti, seed: si})
		}
	}

	runs := make([][]SeedRun, len(tasks))
	errs := make([][]error, len(tasks))
	for ti, t := range tasks {
		runs[ti] = make([]SeedRun, len(t.Seeds))
		errs[ti] = make([]error, len(t.Seeds))
	}

	r.eachWithEngine(len(jobs), func(eng *sim.Engine, i int) {
		j := jobs[i]
		t := &tasks[j.task]
		seed := t.Seeds[j.seed]
		sr := &runs[j.task][j.seed]
		errs[j.task][j.seed] = executeView(eng, t.Spec, seed, func(res *sim.Result) {
			if t.Eval != nil {
				sr.Outcome = ScoreRun(res, seed, t.Eval)
			} else {
				sr.Outcome = RunOutcome{Seed: seed, Stats: res.Stats}
			}
			sr.Run = res.Run
			if t.OnSeed != nil {
				t.OnSeed(sr)
			} else {
				sr.Run = res.Run.CompactClone()
			}
			if sr.Run == res.Run {
				sr.Run = nil
			}
		})
	})

	for _, j := range jobs {
		if err := errs[j.task][j.seed]; err != nil {
			return nil, err
		}
	}
	return runs, nil
}
