package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net/url"
	"strconv"
	"time"

	"repro/internal/workload"
)

// seedStride is the step of workload.Seeds: window [base, base+k·stride)
// holds k consecutive seeds, and shifting a base by j·stride slides the
// window j seeds along the same progression.
var seedStride = workload.Seeds(1, 2)[1] - workload.Seeds(1, 2)[0]

// Wire formats, as the daemon names them, and the Accept header each sends.
const (
	fmtJSON      = "json"
	fmtBin       = "bin"
	fmtNDJSON    = "ndjson"
	fmtBinStream = "bin-stream"
)

var formats = []string{fmtJSON, fmtBin, fmtNDJSON, fmtBinStream}

var acceptOf = map[string]string{
	fmtJSON:      "application/json",
	fmtBin:       "application/x-udc-bin",
	fmtNDJSON:    "application/x-ndjson",
	fmtBinStream: "application/x-udc-bin-stream",
}

// request is one generated call: a sweep window or an extraction window in
// one wire format, sent to one daemon.
type request struct {
	extract bool
	name    string // scenario or extraction
	seeds   int    // window width (sweep seeds / extraction runs)
	base    int64
	format  string
	peer    int
}

// identity names the response body: equal identities must be served
// byte-identical bodies in a given format.
func (r request) identity() string {
	kind := "sweep"
	if r.extract {
		kind = "extract"
	}
	return fmt.Sprintf("%s/%s/%d/%d", kind, r.name, r.seeds, r.base)
}

func (r request) path() string {
	q := url.Values{}
	if r.extract {
		q.Set("extraction", r.name)
		q.Set("runs", strconv.Itoa(r.seeds))
	} else {
		q.Set("scenario", r.name)
		q.Set("seeds", strconv.Itoa(r.seeds))
	}
	q.Set("seedBase", strconv.FormatInt(r.base, 10))
	if r.extract {
		return "/v1/extract?" + q.Encode()
	}
	return "/v1/sweep?" + q.Encode()
}

// schedule yields a workload's request sequence.  next is called in index
// order by one goroutine at a time, so the sequence is a pure function of
// the workload seed.
type schedule interface {
	next(i int) request
}

// workloadDef describes one named workload.
type workloadDef struct {
	name string
	// nodes is how many daemons the workload drives (3 = a fleet).
	nodes int
	// open selects an open loop at rate requests/second; otherwise a
	// closed loop of clients.
	open    bool
	rate    float64
	clients int
	// slo is the latency limit slo_ok_ratio is measured against.
	slo time.Duration
	// checkN is the schedule prefix the exact-count self-check covers.
	checkN int
	// prime fills a freshly booted cluster's corpus; it is part of set-up.
	prime func(c *cluster, seed uint64, sc scale) error
	// schedule builds the seeded request sequence.
	schedule func(seed uint64, sc scale) schedule
}

// scale holds the sizes a run uses; smoke mode shrinks them so the harness
// test finishes in seconds.
type scale struct {
	primed int // overlap-read: primed seeds per scenario
	checkN int // 0 keeps the workload's own prefix
}

var fullScale = scale{primed: 512}

var workloads = []*workloadDef{overlapRead, coldFleet, extractGrow}

func lookupWorkload(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// rng returns the seeded stream for one purpose of one workload seed.
func rng(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// pick draws an index from cumulative weights.
func pick(r *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	x := r.Float64() * total
	for i, w := range weights {
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}

// zipf returns Zipf(s) popularity weights for n items, most popular first.
func zipf(n int, s float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
	}
	return w
}

// ---- overlap-read ---------------------------------------------------------

// overlapScenarios are the sweep scenarios of overlap-read, most popular
// first.
var overlapScenarios = []string{"prop2.3-nudc", "prop3.1-strong-udc", "cor4.2-quorum-udc", "adv-duplicate-storm-nudc"}

var (
	overlapWidths      = []int{8, 16, 32, 64}
	overlapWidthWeight = []float64{4, 3, 2, 1}
	overlapFormatMix   = []float64{4, 3, 2, 1} // json, bin, ndjson, bin-stream
)

// overlapPartialShare is the share of windows that run past the primed
// edge, so part of each is computed.
const overlapPartialShare = 0.05

// overlapBase is the first seed of a scenario's primed region.
func overlapBase(seed uint64, scenario int) int64 {
	return 1 + int64(rng(seed, 100+uint64(scenario)).IntN(1<<20))*seedStride
}

var overlapRead = &workloadDef{
	name:   "overlap-read",
	nodes:  1,
	open:   true,
	rate:   overlapRate,
	slo:    100 * time.Millisecond,
	checkN: 500,
	prime: func(c *cluster, seed uint64, sc scale) error {
		var reqs []request
		for s, name := range overlapScenarios {
			for off := 0; off < sc.primed; off += 64 {
				w := min(64, sc.primed-off)
				reqs = append(reqs, request{name: name, seeds: w, base: overlapBase(seed, s) + int64(off)*seedStride})
			}
		}
		return primeAll(c, reqs)
	},
	schedule: func(seed uint64, sc scale) schedule {
		o := &overlapSchedule{r: rng(seed, 1), primed: sc.primed}
		for s := range overlapScenarios {
			o.base = append(o.base, overlapBase(seed, s))
			o.cursor = append(o.cursor, 0)
			o.frontier = append(o.frontier, sc.primed)
		}
		return o
	},
}

// overlapRate is overlap-read's arrival rate, about a fifth of the
// closed-loop capacity (2 clients, same mix: about 266 req/s on a 2-CPU
// container).  At 70% of capacity the in-process generator, which shares
// the CPUs with the daemon, fell tens of milliseconds behind its schedule.
const overlapRate = 50

type overlapSchedule struct {
	r        *rand.Rand
	primed   int
	base     []int64
	cursor   []int // next window start per scenario, in seeds from base
	frontier []int // first never-requested seed per scenario
}

// overlapPopularity is the Zipf(1.1) popularity of overlapScenarios.
var overlapPopularity = zipf(len(overlapScenarios), 1.1)

func (o *overlapSchedule) next(int) request {
	s := pick(o.r, overlapPopularity)
	w := overlapWidths[pick(o.r, overlapWidthWeight)]
	format := formats[pick(o.r, overlapFormatMix)]
	var start int
	if o.r.Float64() < overlapPartialShare {
		// Run a few seeds past everything requested so far: a partial hit
		// whose tail is computed.
		tail := 1 + o.r.IntN(4)
		start = o.frontier[s] + tail - w
		o.frontier[s] += tail
	} else {
		if o.cursor[s]+w > o.primed {
			// Wrap with a fresh phase, so a window identity rarely repeats
			// and most windows assemble from per-seed records.
			o.cursor[s] = o.r.IntN(32)
		}
		start = o.cursor[s]
		o.cursor[s] += w / 2
	}
	return request{name: overlapScenarios[s], seeds: w, base: o.base[s] + int64(start)*seedStride, format: format}
}

// ---- cold-fleet -----------------------------------------------------------

// coldScenarios is the Table 1 sweep catalog cold-fleet draws from.
var coldScenarios = []string{
	"prop2.3-nudc", "prop2.4-reliable-udc", "prop3.1-strong-udc", "prop4.1-tuseful-udc",
	"cor4.2-quorum-udc", "quiescent-udc", "retransmit-udc",
}

const coldWindow = 16

var coldFleet = &workloadDef{
	name:    "cold-fleet",
	nodes:   3,
	clients: 2,
	slo:     250 * time.Millisecond,
	checkN:  48,
	// Warm every peer with one sweep of a scenario the workload never
	// requests, so set-up covers a first fleet computation while the
	// workload's own windows stay cold.
	prime: func(c *cluster, _ uint64, _ scale) error {
		var reqs []request
		for i := range c.nodes {
			reqs = append(reqs, request{name: "throughput", seeds: 8, base: 1 + int64(i)*8*seedStride, peer: i})
		}
		return primeAll(c, reqs)
	},
	schedule: func(seed uint64, sc scale) schedule {
		r := rng(seed, 2)
		return &coldSchedule{r: r, base: 1 + int64(r.IntN(1<<20))*coldWindow*seedStride}
	},
}

type coldSchedule struct {
	r    *rand.Rand
	base int64
}

func (c *coldSchedule) next(i int) request {
	return request{
		name:   coldScenarios[c.r.IntN(len(coldScenarios))],
		seeds:  coldWindow,
		base:   c.base + int64(i)*coldWindow*seedStride,
		format: []string{fmtJSON, fmtBin}[c.r.IntN(2)],
		peer:   i % 3,
	}
}

// ---- extract-grow ---------------------------------------------------------

var growExtractions = []string{"kx-perfect", "kx-tuseful", "kx-perfect-cascade", "kx-tuseful-burst-loss"}

// growSteps is how many requests grow one extraction window (by growStep
// runs each) from a base; one more request then re-reads the grown window
// before the client moves to a fresh base.
const (
	growSteps = 4
	growStep  = 8
	growSpan  = growSteps * growStep
)

var extractGrow = &workloadDef{
	name:    "extract-grow",
	nodes:   1,
	clients: 1,
	slo:     500 * time.Millisecond,
	checkN:  4 * (growSteps + 1),
	// Warm the daemon with one extraction the workload never requests.
	prime: func(c *cluster, _ uint64, _ scale) error {
		return primeAll(c, []request{{extract: true, name: "kx-perfect-skewed-delays", seeds: growStep, base: 1}})
	},
	schedule: func(seed uint64, sc scale) schedule {
		r := rng(seed, 3)
		return &growSchedule{
			base:  1 + int64(r.IntN(1<<20))*growSpan*seedStride,
			first: r.IntN(len(growExtractions)),
			perm:  r.Perm(3),
		}
	},
}

// growSchedule rotates through the extractions (one per base) and the
// formats, from seeded starting points, so every run carries the same mix.
type growSchedule struct {
	base  int64
	first int
	perm  []int
}

func (g *growSchedule) next(i int) request {
	episode, step := i/(growSteps+1), i%(growSteps+1)
	return request{
		extract: true,
		name:    growExtractions[(g.first+episode)%len(growExtractions)],
		seeds:   min(step+1, growSteps) * growStep,
		base:    g.base + int64(episode)*growSpan*seedStride,
		format:  []string{fmtJSON, fmtBin, fmtNDJSON}[g.perm[i%3]],
	}
}
