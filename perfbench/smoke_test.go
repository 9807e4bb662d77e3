package main

import (
	"context"
	"testing"
	"time"
)

// TestSmoke runs every workload of BENCHMARK.json at tiny sizes, untraced
// and traced, and requires every metric the file names to be printed
// with its unit and every correctness check to pass.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			w, trace := w.Name, trace
			t.Run(w+map[bool]string{false: "", true: "/trace"}[trace], func(t *testing.T) {
				fn, ok := workloads[w]
				if !ok {
					t.Fatalf("BENCHMARK.json names workload %q, the program has none", w)
				}
				cfg := config{
					workload: w,
					seed:     3,
					seconds:  4 * time.Second,
					trace:    trace,
					dir:      t.TempDir(),
					traceDir: t.TempDir(),
					size:     tinySizes(),
					log:      testWriter{t},
				}
				rep, err := fn(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				out, err := spec.render(rep, trace)
				if err != nil {
					t.Fatal(err)
				}
				if !out.Correct {
					t.Fatalf("checks failed: %v", rep.problems)
				}
				if out.Attempted < 1 {
					t.Fatalf("attempted %d operations", out.Attempted)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				for _, m := range want {
					got, ok := out.Metrics[m.Name]
					if !ok || got.Unit != m.Unit || got.Unit == "" {
						t.Errorf("metric %s: printed %+v (present %v), want unit %q", m.Name, got, ok, m.Unit)
					}
					if !trace && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}
