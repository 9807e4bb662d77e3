// Command perfbench is the repository benchmark: it runs one named
// workload of the mine → store → ingest → serve loop, checks its
// outputs, and prints one JSON line of metrics named in BENCHMARK.json.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	mine-structural  Algorithm 1 over the uniform-label OD_TH graph,
//	                 each mined store served and read back
//	ingest-window    per-day batches slid through a 30-batch window by
//	                 an in-process ingest daemon, remounted into serve
//	serve-query      the query mix from closed-loop clients over a store
//	                 larger than serve's pattern cache
//
// The seed drives the query draws and the ingest daemon's retry
// jitter; the generated dataset and the partitioning are fixed, so
// every seed measures the same work (see genConfig). The program under
// test receives only the generated inputs. It
// is reached only through the public functions of internal/core, fsg,
// store, ingest and serve, plus the hooks they expose: fsg progress
// events and results, ingest.Status, a private obs.Registry, the
// /v1/stores and /metrics endpoints, and a timing faultfs.FS.
//
// With --trace 0 the last line holds every end-to-end metric; with
// --trace 1 it holds every per-layer metric, measured with spans
// recorded around each call into a layer, and the spans are written to
// .bench_build/trace-<workload>-<seed>.json. The layer → metric →
// end-to-end-metric map is perfbench/layers.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the program reads: the
// metric names and units it must print.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// tally counts operations and failed correctness checks.
type tally struct {
	attempted int
	failed    int
	problems  []string
}

// check records a failed correctness check unless ok.
func (t *tally) check(ok bool, format string, args ...any) {
	if !ok {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.problems = append(t.problems, o.problems...)
}

// report is what a workload measured.
type report struct {
	tally
	e2e   map[string]float64
	layer map[string]float64
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// render builds the result line: every end-to-end metric, or with
// trace every per-layer metric (a layer the workload does not reach
// reads 0). A measured metric the spec does not name, or a missing
// end-to-end metric, is a benchmark bug and an error.
func (s *benchSpec) render(r *report, trace bool) (output, error) {
	want, got := s.EndToEnd, r.e2e
	if trace {
		want, got = s.PerLayer, r.layer
	}
	out := output{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	named := map[string]bool{}
	for _, m := range want {
		named[m.Name] = true
		v, ok := got[m.Name]
		if !ok && !trace {
			return out, fmt.Errorf("workload did not measure end-to-end metric %s", m.Name)
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	var extra []string
	for name := range got {
		if !named[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return out, fmt.Errorf("metrics not named in BENCHMARK.json: %s", strings.Join(extra, ", "))
	}
	return out, nil
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	dir      string // scratch directory for stores and daemon state
	traceDir string // where a traced run writes its spans
	size     sizes
	log      io.Writer
}

func (c config) logf(format string, args ...any) {
	fmt.Fprintf(c.log, "perfbench: "+format+"\n", args...)
}

type workloadFunc func(ctx context.Context, cfg config) (*report, error)

var workloads = map[string]workloadFunc{
	"mine-structural": runStructural,
	"ingest-window":   runIngestWindow,
	"serve-query":     runServeQuery,
}

func main() {
	workload := flag.String("workload", "", "workload name (mine-structural, ingest-window, serve-query)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 25, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, trace bool) error {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d < 1", seconds)
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := config{
		workload: workload,
		seed:     seed,
		seconds:  time.Duration(seconds) * time.Second,
		trace:    trace,
		dir:      dir,
		traceDir: ".bench_build",
		size:     fullSizes(),
		log:      os.Stderr,
	}
	cfg.logf("%s seed=%d seconds=%d trace=%v nproc=%d", workload, seed, seconds, trace, runtime.NumCPU())
	rep, err := fn(context.Background(), cfg)
	if err != nil {
		return err
	}
	out, err := spec.render(rep, trace)
	if err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	for _, p := range rep.problems {
		cfg.logf("check failed: %s", p)
	}
	fmt.Println(string(line))
	if !out.Correct {
		return fmt.Errorf("%d correctness check(s) failed", len(rep.problems))
	}
	return nil
}

// traceFile is where a traced run writes its spans.
func traceFile(cfg config) string {
	return filepath.Join(cfg.traceDir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
}
