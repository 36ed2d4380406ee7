package main

import (
	"io"
	"testing"
)

// smokeScale shrinks the primed corpus and the self-check prefix so each
// workload's smoke pass takes seconds.
var smokeScale = scale{primed: 64, checkN: 4}

// TestSmoke runs every workload briefly, traced (so untraced and traced
// passes run with the same seed and their exact counts are compared), with
// verification on, and checks that the result line carries every metric.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			cfg := config{workload: wl.name, seed: 7, seconds: 1, trace: true, root: t.TempDir(), scale: smokeScale}
			rep, err := bench(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			for _, name := range endToEnd {
				if _, ok := rep.e2e[name]; !ok {
					t.Errorf("end-to-end metric %s missing", name)
				}
			}
			if len(rep.Metrics) != len(rep.layer) || rep.Metrics["trace.overhead_ratio"].Value <= 0 {
				t.Errorf("traced result carries %d metrics, want the %d per-layer ones", len(rep.Metrics), len(rep.layer))
			}
			// A second invocation with the seed compares its exact counts
			// with the first one's record.
			cfg.trace = false
			if rep, err = bench(cfg, io.Discard); err != nil || !rep.Correct {
				t.Fatalf("second run: err=%v correct=%v", err, rep != nil && rep.Correct)
			}
		})
	}
}
