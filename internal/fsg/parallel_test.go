package fsg

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"tnkd/internal/graph"
)

// renderResult serialises every observable field of a mining result
// — each pattern's TIDs, overflow marks and per-TID embedding counts,
// each level's full stats — so equivalence across Parallelism values
// can be asserted byte-for-byte.
func renderResult(r *Result) string {
	var b strings.Builder
	for i := range r.Patterns {
		p := &r.Patterns[i]
		embs := make([]int, len(p.Embs))
		for j, list := range p.Embs {
			embs[j] = len(list)
		}
		fmt.Fprintf(&b, "pattern %d code=%q support=%d tids=%v overflowed=%v partial=%v embs=%v\n%s",
			i, p.Code, p.Support, p.TIDs, p.Overflowed, p.Partial, embs, p.Graph.Dump())
	}
	for _, lv := range r.Levels {
		fmt.Fprintf(&b, "level %+v\n", lv)
	}
	fmt.Fprintf(&b, "aborted=%v reason=%q budgeted=%d\n", r.Aborted, r.AbortReason, r.BudgetedTests)
	return b.String()
}

// motifTxns builds a deterministic pseudo-random transaction set
// with enough shared structure to reach multi-edge levels.
func motifTxns(n int, seed int64) []*graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"w1", "w2", "w3"}
	txns := make([]*graph.Graph, n)
	for i := range txns {
		g := graph.New(fmt.Sprintf("txn%d", i))
		vs := make([]graph.VertexID, 6)
		for j := range vs {
			vs[j] = g.AddVertex("*")
		}
		// A shared hub motif in most transactions plus random noise.
		if i%4 != 3 {
			g.AddEdge(vs[0], vs[1], "w1")
			g.AddEdge(vs[0], vs[2], "w1")
			g.AddEdge(vs[1], vs[3], "w2")
		}
		for k := 0; k < 4; k++ {
			u, v := rng.Intn(len(vs)), rng.Intn(len(vs))
			if u == v {
				continue
			}
			g.AddEdge(vs[u], vs[v], labels[rng.Intn(len(labels))])
		}
		txns[i] = g
	}
	return txns
}

// TestMineDeterministicAcrossParallelism asserts bit-identical output
// at Parallelism 0 (auto), 1, 2, 3, 4 and GOMAXPROCS, with and
// without a step budget. Run under -race this also exercises the
// engine fan-out for safety.
func TestMineDeterministicAcrossParallelism(t *testing.T) {
	txns := motifTxns(24, 7)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"plain", Options{MinSupport: 6, MaxEdges: 4}},
		{"budgeted", Options{MinSupport: 4, MaxEdges: 4, MaxSteps: 40}},
		{"capped", Options{MinSupport: 2, MaxEdges: 3, MaxCandidates: 25}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want string
			for _, p := range []int{1, 2, 3, 4, 0, runtime.GOMAXPROCS(0)} {
				opts := tc.opts
				opts.Parallelism = p
				res, err := Mine(txns, opts)
				if err != nil {
					t.Fatalf("parallelism %d: %v", p, err)
				}
				got := renderResult(res)
				if want == "" {
					want = got
					continue
				}
				if got != want {
					t.Errorf("parallelism %d diverged from serial result:\n--- serial ---\n%s\n--- p=%d ---\n%s",
						p, want, p, got)
				}
			}
		})
	}
}
