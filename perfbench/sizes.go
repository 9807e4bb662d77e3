package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"tnkd/internal/dataset"
	"tnkd/internal/fsg"
	"tnkd/internal/obs"
)

// sizes are the workload parameters. BENCHMARK.json records the full
// sizes in each workload's reason; tinySizes shrinks them for the
// smoke tests.
type sizes struct {
	scale    float64       // dataset.DefaultConfig().Scaled factor
	setups   int           // fewest set-up rounds per run; setup_s is their median
	setupFor time.Duration // more rounds while the rounds so far took less

	// mine-structural: the bench_test.go StructuralPipeline settings.
	partitions, repetitions, structSupport, structMaxEdges int
	partitionSeed                                          int64

	// ingest-window and serve-query: the temporal partition with the
	// default label cap.
	seedDays                      int // days mined into the starting store
	window                        int // ingest window, in batches
	ingestSupport, ingestMaxEdges int
	maxBatches                    int // per-day batches streamed per run
	denseSupport, denseMaxEdges   int // serve-query's store
	// denseCacheBytes is serve-query's pattern cache, about half of its
	// store's 5.8 MiB of marshaled bodies, so the hot head hits and the
	// tail is decoded and evicts. No store that mines in about a second
	// outgrows serve's 8 MiB default: MaxEdges 5 gives 25 MiB of bodies
	// but takes 4-5 s a mine, and support and window changes give either
	// ~2.5k or ~33k patterns.
	denseCacheBytes int

	checkEvery  int  // verify every n-th point and every n-th support response
	enforceTail bool // fail a run whose percentiles lack samples
}

func fullSizes() sizes {
	return sizes{
		scale:           0.05,
		setups:          3,
		setupFor:        2 * time.Second,
		partitions:      40,
		repetitions:     3,
		structSupport:   12,
		structMaxEdges:  5,
		partitionSeed:   17,
		seedDays:        20,
		window:          30,
		ingestSupport:   4,
		ingestMaxEdges:  3,
		maxBatches:      50,
		denseSupport:    4,
		denseMaxEdges:   4,
		denseCacheBytes: 3 << 20,
		checkEvery:      25,
		enforceTail:     true,
	}
}

// tinySizes runs every code path in seconds, for the smoke tests.
func tinySizes() sizes {
	s := fullSizes()
	s.scale = 0.02
	s.setups = 2
	s.setupFor = 0
	s.partitions = 10
	s.structSupport = 6
	s.structMaxEdges = 3
	s.seedDays = 60
	s.window = 3
	s.ingestSupport = 2
	s.ingestMaxEdges = 2
	s.maxBatches = 5
	s.denseMaxEdges = 2
	s.checkEvery = 1
	s.enforceTail = false
	return s
}

// genConfig is the generator configuration of every workload: the
// default generator seed at the workload's scale. The workload seed
// does not reach the generator, because the generator's seed changes
// the work itself, not just its order: across generator seeds 1-8 the
// serve-query store holds 2081 to 12405 patterns. Runs with different
// seeds must measure the same work.
func genConfig(cfg config) dataset.GenConfig {
	return dataset.DefaultConfig().Scaled(cfg.size.scale)
}

// maxSetups caps the set-up rounds of a cheap set-up.
const maxSetups = 100

// moreSetups reports whether set-up round i runs: one round in a
// traced run (it reports no setup_s), else at least size.setups rounds
// and more while the rounds since start took under size.setupFor, so
// a cheap set-up's median rests on more rounds.
func moreSetups(cfg config, i int, start time.Time) bool {
	switch {
	case cfg.trace:
		return i < 1
	case i < cfg.size.setups:
		return true
	default:
		return i < maxSetups && time.Since(start) < cfg.size.setupFor
	}
}

func nproc() int { return runtime.NumCPU() }

// engineTasks reads the engine's task counter, which the engine keeps
// in the process-wide registry.
func engineTasks() int64 { return obs.Default.Counter("tnd_engine_tasks_total").Value() }

// levelStats accumulates fsg level statistics and level times from
// progress events and results.
type levelStats struct {
	mu         sync.Mutex
	levelTime  map[int]time.Duration
	candidates int
	frequent   int
	embeddings int
	isoTests   int
	budgeted   int
}

func newLevelStats() *levelStats { return &levelStats{levelTime: map[int]time.Duration{}} }

func (s *levelStats) progress(ev fsg.LevelProgress) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.levelTime[ev.Edges] += ev.Elapsed
	s.candidates += ev.Candidates
	s.frequent += ev.Frequent
	s.embeddings += ev.Embeddings
	s.isoTests += ev.IsoTests
}

func (s *levelStats) result(r *fsg.Result) {
	s.mu.Lock()
	s.budgeted += r.BudgetedTests
	s.mu.Unlock()
}

// report writes the fsg.* per-layer metrics, each divided by ops (the
// number of mines the statistics cover).
func (s *levelStats) report(layer map[string]float64, ops int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := float64(max(ops, 1))
	for lv := 1; lv <= 5; lv++ {
		layer[levelMetric(lv)] = s.levelTime[lv].Seconds() / n
	}
	layer["fsg.candidates"] = float64(s.candidates) / n
	layer["fsg.frequent_per_candidate"] = ratio(float64(s.frequent), float64(s.candidates))
	layer["fsg.embeddings"] = float64(s.embeddings) / n
	layer["fsg.iso_tests"] = float64(s.isoTests) / n
	layer["fsg.budgeted_tests"] = float64(s.budgeted) / n
}

// levelProgress records one fsg progress event: its statistics, and a
// child span of the mine's span ending now and lasting the level's
// elapsed time.
func levelProgress(tr *tracer, mine handle, s *levelStats, ev fsg.LevelProgress) {
	now := time.Now()
	tr.child(mine, fmt.Sprintf("fsg.level%d", ev.Edges), now.Add(-ev.Elapsed), now)
	s.progress(ev)
}

func levelMetric(lv int) string { return fmt.Sprintf("fsg.level%d_s", lv) }

// reportRuntime writes the runtime.* per-layer metrics per operation.
func reportRuntime(layer map[string]float64, m memDelta, ops int) {
	n := float64(max(ops, 1))
	layer["runtime.allocs"] = float64(m.allocs) / n
	layer["runtime.alloc_mb"] = float64(m.bytes) / (1 << 20) / n
	layer["runtime.gc_cycles"] = float64(m.gcCount) / n
}

// reportSelfTimes writes each layer's self time per operation, in ms,
// and saves the spans.
func reportSelfTimes(cfg config, layer map[string]float64, tr *tracer, ops int) error {
	n := float64(max(ops, 1))
	for _, l := range []string{"bench", "core", "fsg", "store", "ingest", "serve"} {
		layer["self."+l+"_ms"] = 0
	}
	for l, d := range selfTimes(tr.snapshot()) {
		layer["self."+l+"_ms"] = ms(d) / n
	}
	return tr.write(traceFile(cfg))
}

// reportLoad writes the client-side per-class medians and the
// overall p99 of a read phase.
func reportLoad(layer map[string]float64, r loadResult) {
	for c := range r.byClass {
		layer["serve."+classNames[c]+"_p50_ms"] = percentile(r.byClass[c], 50)
	}
	layer["query_p99_ms"] = windowedP99(r.all)
	layer["serve.bytes_per_request"] = ratio(float64(r.bytes), float64(r.sent-r.failed))
}

// reportServer writes the server-side view of an interval from the
// private registry: p99 request time, cache hit ratio and evictions,
// remount drain time.
func reportServer(layer map[string]float64, before, after []obs.Series) {
	layer["serve.server_p99_ms"] = histDelta(before, after, "tnd_http_request_seconds").Quantile(0.99) * 1000
	hits := counterDelta(before, after, "tnd_serve_cache_hits_total")
	misses := counterDelta(before, after, "tnd_serve_cache_misses_total")
	layer["serve.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	layer["serve.cache_evictions"] = float64(counterDelta(before, after, "tnd_serve_cache_evictions_total"))
	drain := histDelta(before, after, "tnd_serve_remount_drain_seconds")
	layer["serve.drain_ms"] = ratio(drain.Sum, float64(drain.Count)) * 1000
}

// reportQueries writes the end-to-end query latencies of a read
// phase, in ms: the median and the p90, each the median over
// consecutive windows (windowedPercentile), and fails the run when the
// p90 has fewer than minTail samples beyond it. p90, not p99, is the
// end-to-end tail: on a shared 2-vCPU VM an idle process's 2.5 ms
// sleeps already wake 4-6 ms late at p99, so the query p99 reads the
// host's timer jitter and did not repeat within a quarter across runs
// of one seed. The p99 is a per-layer metric.
func reportQueries(cfg config, rep *report, what string, all []float64) {
	rep.e2e["query_p50_ms"] = windowedPercentile(all, 50)
	rep.e2e["query_p90_ms"] = windowedPercentile(all, 90)
	if cfg.size.enforceTail {
		n := len(all)
		rep.check(highestPercentile(n) >= 90, "%s: p90 from %d samples has fewer than %d beyond it", what, n, minTail)
	}
}
