// Command udcbench is the end-to-end benchmark of udcd.  It boots the daemon
// in-process — server.New over a disk-backed store in a fresh directory, on
// loopback listeners, with cmd/udcd's defaults — drives one named workload
// over HTTP for a fixed time, checks the responses against direct library
// computations, and prints every metric by name with its unit and sample
// count.  The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the same
// workload runs twice more, untraced and then traced, and the metrics are the
// per-layer ones measured from outside each layer (see README.md).
//
// Usage (from the repository root, which must hold the daemon's source):
//
//	bash udcbench/run.sh --workload cold-fleet --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: overlap-read, cold-fleet or extract-grow")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed generates the same requests")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from an extra traced run")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.root = filepath.Join(".bench_build", "udcbench")
	cfg.scale = fullScale
	rep, err := bench(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "udcbench:", err)
		os.Exit(2)
	}
	out, _ := json.Marshal(rep.final)
	fmt.Println(string(out))
	if !rep.final.Correct {
		os.Exit(1)
	}
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string
	scale    scale
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind the value
}

// final is the last output line.
type final struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type report struct {
	final
	e2e   map[string]metric
	layer map[string]metric
}

// endToEnd names the metrics the -trace 0 line carries (BENCHMARK.json's
// end_to_end list); the rest of the end-to-end table is printed only.
var endToEnd = []string{"latency_p50_ms", "latency_p90_ms", "req_per_s", "seeds_per_s", "slo_ok_ratio", "peak_rss_mb", "setup_s"}

// bench runs one invocation and writes the human-readable report to w.
func bench(cfg config, w io.Writer) (*report, error) {
	wl, err := lookupWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	fmt.Fprintf(w, "env: workload=%s seed=%d nproc=%d GOMAXPROCS=%d go=%s seconds=%g trace=%v\n",
		wl.name, cfg.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "workload: %s loop, slo=%s\n", arrival(wl), wl.slo)

	rep := &report{}
	var failures []string
	first, err := runPass(cfg, wl, false)
	if err != nil {
		return nil, err
	}
	rep.e2e = first.endToEnd(wl)
	rep.Attempted, rep.Failed = len(first.d.results), first.failed()
	failures = append(failures, first.problems...)
	checks := []map[string]string{first.selfcheck}

	if cfg.trace {
		traced, err := runPass(cfg, wl, true)
		if err != nil {
			return nil, err
		}
		rep.layer = traced.layers
		rep.layer["trace.overhead_ratio"] = metric{Value: traced.endToEnd(wl)["latency_p50_ms"].Value / rep.e2e["latency_p50_ms"].Value, Unit: "ratio", n: 2}
		rep.Attempted += len(traced.d.results)
		rep.Failed += traced.failed()
		failures = append(failures, traced.problems...)
		checks = append(checks, traced.selfcheck)
		if err := traced.spans.write(filepath.Join(cfg.root, "traces", fmt.Sprintf("%s-seed%d.jsonl", wl.name, cfg.seed))); err != nil {
			return nil, err
		}
		printSelfTimes(w, traced.spans)
	}

	failures = append(failures, selfCheck(cfg, wl, checks, w)...)
	if p99, ok := rep.e2e["latency_p99_ms"]; wl.open && ok && first.lagP99() > 0.5*p99.Value {
		fmt.Fprintf(w, "pacing: INVALID, generator lag p99 %.3f ms is not well below latency p99 %.3f ms: the generator, not the daemon, set the pace\n", first.lagP99(), p99.Value)
	}
	printMetrics(w, "end-to-end", rep.e2e)
	if cfg.trace {
		printMetrics(w, "per-layer", rep.layer)
	}
	for _, f := range failures {
		fmt.Fprintln(w, "FAIL:", f)
	}
	rep.Correct = len(failures) == 0 && rep.Failed == 0
	rep.Metrics = make(map[string]metric)
	if cfg.trace {
		rep.Metrics = rep.layer
	} else {
		for _, name := range endToEnd {
			rep.Metrics[name] = rep.e2e[name]
		}
	}
	return rep, nil
}

func arrival(wl *workloadDef) string {
	if wl.open {
		return fmt.Sprintf("open (Poisson, %.0f req/s, %d connections)", wl.rate, conns())
	}
	return fmt.Sprintf("closed (%d clients)", wl.clients)
}

// conns is the most connections the benchmark keeps to one daemon.
func conns() int { return runtime.NumCPU() }

func printMetrics(w io.Writer, title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s metrics:\n", title)
	for _, n := range names {
		m := ms[n]
		fmt.Fprintf(w, "  %-34s %14.6f %-6s n=%d\n", n, m.Value, m.Unit, m.n)
	}
}

func printSelfTimes(w io.Writer, l *spanLog) {
	self := l.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "span self time (mean ms per span):")
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %10.4f n=%d\n", n, self[n][0]/self[n][1], int(self[n][1]))
	}
}

// selfCheck compares the exact counts of every pass of this invocation,
// and of earlier invocations with the same workload and seed (kept under
// the scratch directory).  Drift means the workload, not the program,
// changed.
func selfCheck(cfg config, wl *workloadDef, checks []map[string]string, w io.Writer) []string {
	var problems []string
	path := filepath.Join(cfg.root, "selfcheck", fmt.Sprintf("%s-seed%d.json", wl.name, cfg.seed))
	var earlier map[string]string
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &earlier); err != nil {
			problems = append(problems, fmt.Sprintf("self-check record %s: %v", path, err))
		}
	}
	merged := make(map[string]string)
	for k, v := range earlier {
		merged[k] = v
	}
	for _, c := range append([]map[string]string{earlier}, checks...) {
		for k, v := range c {
			if prev, ok := merged[k]; ok && prev != v {
				problems = append(problems, fmt.Sprintf("self-check: %s is %s, an earlier run with this seed had %s", k, v, prev))
			}
			merged[k] = v
		}
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintln(w, "self-check (exact over the schedule prefix):")
	for _, k := range keys {
		fmt.Fprintf(w, "  %-34s %s\n", k, merged[k])
	}
	if len(problems) == 0 {
		raw, _ := json.MarshalIndent(merged, "", "  ")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				problems = append(problems, err.Error())
			}
		}
	}
	return problems
}

// median of values (NaN for none).
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
