package iso

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"tnkd/internal/graph"
)

// renderEmbedding serialises an embedding for set comparison.
func renderEmbedding(e Embedding) string {
	return fmt.Sprintf("%v|%v", e.Verts, e.Edges)
}

func sortedRenders(embs []Embedding) []string {
	out := make([]string, 0, len(embs))
	for _, e := range embs {
		out = append(out, renderEmbedding(e))
	}
	sort.Strings(out)
	return out
}

// randGraph builds a random dense-ID labeled digraph.
func denseRandGraph(rng *rand.Rand, nv, ne, vLabels, eLabels int) *graph.Graph {
	g := graph.New("t")
	vs := make([]graph.VertexID, nv)
	for i := range vs {
		vs[i] = g.AddVertex(fmt.Sprintf("v%d", rng.Intn(vLabels)))
	}
	for i := 0; i < ne; i++ {
		a, b := vs[rng.Intn(nv)], vs[rng.Intn(nv)]
		if a == b {
			continue
		}
		g.AddEdge(a, b, fmt.Sprintf("e%d", rng.Intn(eLabels)))
	}
	return g
}

// bruteForceVertexMaps is the test oracle for Embeddings: it tries
// every injective, label-preserving map of pattern vertices onto
// target vertices and keeps those under which each pattern edge has a
// target edge with the mapped (from, to, label) signature as its
// witness. The pattern repeats no signature, so under an injective
// map the witnesses are distinct edges and edge-injectivity needs no
// separate check. Each map is rendered as its target-vertex list in
// pattern-ID order.
func bruteForceVertexMaps(target, pattern *graph.Graph) []string {
	pvs, tvs := pattern.Vertices(), target.Vertices()
	vmap := make([]graph.VertexID, len(pvs))
	used := make(map[graph.VertexID]bool)
	var out []string
	var place func(i int)
	place = func(i int) {
		if i == len(pvs) {
			for _, pe := range pattern.Edges() {
				ed := pattern.Edge(pe)
				if !hasEdge(target, vmap[ed.From], vmap[ed.To], ed.Label) {
					return
				}
			}
			out = append(out, fmt.Sprint(vmap))
			return
		}
		for _, tv := range tvs {
			if used[tv] || target.Vertex(tv).Label != pattern.Vertex(pvs[i]).Label {
				continue
			}
			used[tv], vmap[i] = true, tv
			place(i + 1)
			used[tv] = false
		}
	}
	place(0)
	sort.Strings(out)
	return out
}

// randOraclePattern builds a random dense-ID pattern, self-loops and
// disconnected parts included, that repeats no (from, to, label)
// signature — the shape of FSG's candidates.
func randOraclePattern(rng *rand.Rand) *graph.Graph {
	g := graph.New("p")
	nv := 1 + rng.Intn(4)
	for i := 0; i < nv; i++ {
		g.AddVertex(fmt.Sprintf("v%d", rng.Intn(2)))
	}
	for i := rng.Intn(5); i > 0; i-- {
		from, to := graph.VertexID(rng.Intn(nv)), graph.VertexID(rng.Intn(nv))
		label := fmt.Sprintf("e%d", rng.Intn(2))
		if !hasEdge(g, from, to, label) {
			g.AddEdge(from, to, label)
		}
	}
	return g
}

// TestEmbeddingsMatchBruteForce checks the matcher against the
// brute-force oracle on seeded random graphs: one embedding per
// valid vertex map, no more, no fewer, each with valid witnesses.
func TestEmbeddingsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 400; trial++ {
		target := randGraphLoops(rng, 7, 14, 2, 2)
		pat := randOraclePattern(rng)
		embs, completed := Embeddings(target, pat, Options{})
		if !completed {
			t.Fatalf("trial %d: unbudgeted search reported incomplete", trial)
		}
		var got []string
		for _, e := range embs {
			got = append(got, fmt.Sprint(e.Verts))
			usedE := map[graph.EdgeID]bool{}
			for pe, te := range e.Edges {
				ped, ted := pat.Edge(graph.EdgeID(pe)), target.Edge(te)
				if usedE[te] || ped.Label != ted.Label || e.Verts[ped.From] != ted.From || e.Verts[ped.To] != ted.To {
					t.Fatalf("trial %d: bad witness %d for pattern edge %d in %v", trial, te, pe, e)
				}
				usedE[te] = true
			}
		}
		sort.Strings(got)
		want := bruteForceVertexMaps(target, pat)
		if CountEmbeddings(target, pat, 0) != len(want) || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: matcher found %v (count %d), oracle %v\npattern:\n%starget:\n%s",
				trial, got, CountEmbeddings(target, pat, 0), want, pat.Dump(), target.Dump())
		}
	}
}

// TestExtendEmbeddingComplete is the incremental-counting invariant:
// for a child pattern built from its parent by one ID-preserving edge
// addition, extending every parent embedding across the new edge
// yields exactly the child's embedding set, each embedding once.
func TestExtendEmbeddingComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(20050405))
	trials := 0
	for trials < 60 {
		target := denseRandGraph(rng, 5+rng.Intn(5), 8+rng.Intn(8), 2, 2)
		parent := denseRandGraph(rng, 2+rng.Intn(3), 1+rng.Intn(3), 2, 2)
		if parent.NumEdges() == 0 {
			continue
		}
		// Build a child by one random extension: new edge between
		// existing vertices, or a new vertex attached by one edge.
		child := parent.Clone()
		vs := child.Vertices()
		u := vs[rng.Intn(len(vs))]
		var newEdge graph.EdgeID
		switch rng.Intn(3) {
		case 0:
			v := vs[rng.Intn(len(vs))]
			label := fmt.Sprintf("e%d", rng.Intn(2))
			// The extension contract forbids duplicate (from, to,
			// label) signatures, as in FSG candidate generation.
			if v == u || hasEdge(child, u, v, label) {
				continue
			}
			newEdge = child.AddEdge(u, v, label)
		case 1:
			w := child.AddVertex(fmt.Sprintf("v%d", rng.Intn(2)))
			newEdge = child.AddEdge(u, w, fmt.Sprintf("e%d", rng.Intn(2)))
		default:
			w := child.AddVertex(fmt.Sprintf("v%d", rng.Intn(2)))
			newEdge = child.AddEdge(w, u, fmt.Sprintf("e%d", rng.Intn(2)))
		}
		trials++

		parentEmbs, _ := Embeddings(target, parent, Options{})
		var extended []Embedding
		for _, pe := range parentEmbs {
			extended = ExtendEmbedding(target, child, pe, newEdge, 0, extended)
		}
		direct, _ := Embeddings(target, child, Options{})
		got, want := sortedRenders(extended), sortedRenders(direct)
		if len(got) != len(want) {
			t.Fatalf("trial %d: extension found %d embeddings, full search %d\nchild:\n%s",
				trials, len(got), len(want), child.Dump())
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: embedding sets differ at %d:\n%s\nvs\n%s", trials, i, got[i], want[i])
			}
		}
	}
}

func hasEdge(g *graph.Graph, from, to graph.VertexID, label string) bool {
	for _, e := range g.OutEdges(from) {
		ed := g.Edge(e)
		if ed.To == to && ed.Label == label {
			return true
		}
	}
	return false
}

// TestExtendEmbeddingLimit checks the existence-check fast path stops
// at the requested number of extensions.
func TestExtendEmbeddingLimit(t *testing.T) {
	target := graph.New("t")
	hub := target.AddVertex("h")
	for i := 0; i < 5; i++ {
		s := target.AddVertex("s")
		target.AddEdge(hub, s, "e")
	}
	parent := graph.New("p")
	parent.AddVertex("h")
	child := parent.Clone()
	w := child.AddVertex("s")
	ne := child.AddEdge(0, w, "e")
	emb := Embedding{Verts: []graph.VertexID{hub}}
	if got := ExtendEmbedding(target, child, emb, ne, 1, nil); len(got) != 1 {
		t.Fatalf("limit 1: got %d extensions", len(got))
	}
	if got := ExtendEmbedding(target, child, emb, ne, 0, nil); len(got) != 5 {
		t.Fatalf("unlimited: got %d extensions, want 5", len(got))
	}
}

// TestReanchorShuffledConstruction re-anchors an instance found
// through one construction onto a pattern built in a different vertex
// and edge order.
func TestReanchorShuffledConstruction(t *testing.T) {
	target := graph.New("t")
	a := target.AddVertex("a")
	b := target.AddVertex("b")
	c := target.AddVertex("c")
	ab := target.AddEdge(a, b, "x")
	bc := target.AddEdge(b, c, "y")

	// Pattern constructed in a different vertex order than the
	// instance's natural one.
	pat := graph.New("p")
	pc := pat.AddVertex("c")
	pb := pat.AddVertex("b")
	pa := pat.AddVertex("a")
	pbc := pat.AddEdge(pb, pc, "y")
	pab := pat.AddEdge(pa, pb, "x")

	emb := Embedding{
		Verts: []graph.VertexID{a, b, c},
		Edges: []graph.EdgeID{ab, bc},
	}
	re := NewReanchorer(target, pat, 0)
	got, ok := re.Reanchor(emb)
	if !ok {
		t.Fatal("Reanchor failed")
	}
	if got.Verts[pa] != a || got.Verts[pb] != b || got.Verts[pc] != c {
		t.Fatalf("Reanchor mapped vertices %v", got.Verts)
	}
	if got.Edges[pab] != ab || got.Edges[pbc] != bc {
		t.Fatalf("Reanchor mapped edges %v", got.Edges)
	}
}

// TestDenseIDContract: a pattern with an ID hole (a removed vertex)
// still matches through Contains and Isomorphic, but every function
// that returns embeddings refuses it instead of emitting -1 slots
// that GreedyNonOverlap would then collide on.
func TestDenseIDContract(t *testing.T) {
	target := graph.New("t")
	for i := 0; i < 2; i++ {
		a := target.AddVertex("A")
		b := target.AddVertex("B")
		target.AddEdge(a, b, "r")
	}
	holed := graph.New("p")
	gone := holed.AddVertex("X")
	holed.AddEdge(holed.AddVertex("A"), holed.AddVertex("B"), "r")
	holed.RemoveVertex(gone)
	compact, _ := holed.Compact()

	if !Contains(target, holed) {
		t.Error("Contains rejected a holed pattern")
	}
	if !Isomorphic(holed, compact) || !Isomorphic(compact, holed) {
		t.Error("holed pattern not isomorphic to its compact copy")
	}
	if got := CountEmbeddings(target, holed, 0); got != 2 {
		t.Errorf("CountEmbeddings = %d, want 2", got)
	}
	for name, call := range map[string]func(){
		"Embeddings":         func() { Embeddings(target, holed, Options{}) },
		"FindNonOverlapping": func() { FindNonOverlapping(target, holed, 0, 0) },
		"NewReanchorer":      func() { NewReanchorer(target, holed, 0) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "dense vertex and edge IDs") {
					t.Errorf("%s: recovered %v, want the dense-ID contract panic", name, r)
				}
			}()
			call()
		}()
	}

	// The compact copy is accepted, and both disjoint instances
	// survive non-overlap selection.
	embs, _ := Embeddings(target, compact, Options{})
	if got := len(GreedyNonOverlap(embs)); got != 2 {
		t.Errorf("GreedyNonOverlap kept %d of %v, want 2", got, embs)
	}
	if got := len(FindNonOverlapping(target, compact, 0, 0)); got != 2 {
		t.Errorf("FindNonOverlapping found %d instances, want 2", got)
	}
}
