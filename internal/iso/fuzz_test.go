package iso

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"tnkd/internal/graph"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite the checked-in seed corpus under testdata/fuzz")

// fuzzReader hands out the fuzz input byte by byte, then zeros.
type fuzzReader []byte

func (r *fuzzReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// decodeFuzzGraph reads one small labeled multigraph: a vertex count
// (1..6), a label-alphabet byte (high nibble vertex labels, low
// nibble edge labels, 1..3 each), one label byte per vertex, an edge
// count (0..9) and a (from, to, label) byte triple per edge. Self-loops
// and parallel edges are allowed.
func decodeFuzzGraph(r *fuzzReader, name string) *graph.Graph {
	g := graph.New(name)
	nv := 1 + r.next()%6
	alphabet := r.next()
	vl, el := 1+(alphabet>>4)%3, 1+alphabet%3
	for i := 0; i < nv; i++ {
		g.AddVertex("v" + strconv.Itoa(r.next()%vl))
	}
	for i := r.next() % 10; i > 0; i-- {
		from, to := graph.VertexID(r.next()%nv), graph.VertexID(r.next()%nv)
		g.AddEdge(from, to, "e"+strconv.Itoa(r.next()%el))
	}
	return g
}

// permuteFuzzGraph rebuilds g with its vertices and edges inserted in
// an order drawn from r: an isomorphic copy with scrambled IDs.
func permuteFuzzGraph(r *fuzzReader, g *graph.Graph) *graph.Graph {
	shuffle := func(n int) []int {
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := r.next() % (i + 1)
			p[i], p[j] = p[j], p[i]
		}
		return p
	}
	out := graph.New(g.Name + "#perm")
	remap := make([]graph.VertexID, g.NumVertices())
	for _, v := range shuffle(g.NumVertices()) {
		remap[v] = out.AddVertex(g.Vertex(graph.VertexID(v)).Label)
	}
	for _, e := range shuffle(g.NumEdges()) {
		ed := g.Edge(graph.EdgeID(e))
		out.AddEdge(remap[ed.From], remap[ed.To], ed.Label)
	}
	return out
}

// decodeFuzzPair reads graph a, then a mode byte: even modes make b a
// permuted copy of a, odd modes decode b independently.
func decodeFuzzPair(data []byte) (a, b *graph.Graph, permuted bool) {
	r := fuzzReader(data)
	a = decodeFuzzGraph(&r, "a")
	if r.next()%2 == 0 {
		return a, permuteFuzzGraph(&r, a), true
	}
	return a, decodeFuzzGraph(&r, "b"), false
}

// FuzzCodeIsomorphic checks that canonical codes are an exact
// isomorphism invariant (equal codes ⟺ Isomorphic) and that every
// graph embeds in itself.
func FuzzCodeIsomorphic(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b, permuted := decodeFuzzPair(data)
		codeEq, isomorphic := Code(a) == Code(b), Isomorphic(a, b)
		if codeEq != isomorphic || (permuted && !isomorphic) {
			t.Fatalf("code equality %v, Isomorphic %v, permuted copy %v\n%s\n%s",
				codeEq, isomorphic, permuted, a.Dump(), b.Dump())
		}
		if embs, _ := Embeddings(a, a, Options{Limit: 1}); len(embs) == 0 {
			t.Fatalf("graph does not embed in itself\n%s", a.Dump())
		}
	})
}

// fuzzSeed is one seed-corpus entry in decodeFuzzGraph's terms:
// vertex labels, edges as (from, to, label) and the label alphabets.
type fuzzSeed struct {
	vl, el int
	verts  []int
	edges  [][3]int
}

func (s fuzzSeed) encode() []byte {
	out := []byte{byte(len(s.verts) - 1), byte((s.vl-1)<<4 | (s.el - 1))}
	for _, l := range s.verts {
		out = append(out, byte(l))
	}
	out = append(out, byte(len(s.edges)))
	for _, e := range s.edges {
		out = append(out, byte(e[0]), byte(e[1]), byte(e[2]))
	}
	return out
}

// fuzzSeedCorpus is the checked-in seed corpus: pairs covering
// permuted copies, equal-size non-isomorphic graphs, self-loops,
// parallel edges and symmetric shapes.
func fuzzSeedCorpus() map[string][]byte {
	triangle := fuzzSeed{1, 1, []int{0, 0, 0}, [][3]int{{0, 1, 0}, {1, 2, 0}, {2, 0, 0}}}
	path := fuzzSeed{1, 1, []int{0, 0, 0}, [][3]int{{0, 1, 0}, {1, 2, 0}, {0, 2, 0}}}
	loops := fuzzSeed{2, 2, []int{0, 1}, [][3]int{{0, 0, 0}, {0, 0, 1}, {0, 1, 0}, {1, 1, 1}}}
	parallel := fuzzSeed{1, 2, []int{0, 0}, [][3]int{{0, 1, 0}, {0, 1, 0}, {1, 0, 1}}}
	antiParallel := fuzzSeed{1, 2, []int{0, 0}, [][3]int{{0, 1, 0}, {1, 0, 0}, {1, 0, 1}}}
	star := fuzzSeed{1, 1, []int{0, 0, 0, 0, 0, 0}, [][3]int{{0, 1, 0}, {0, 2, 0}, {0, 3, 0}, {0, 4, 0}, {5, 0, 0}}}
	twoC3 := fuzzSeed{1, 1, []int{0, 0, 0, 0, 0, 0}, [][3]int{{0, 1, 0}, {1, 2, 0}, {2, 0, 0}, {3, 4, 0}, {4, 5, 0}, {5, 3, 0}}}
	c6 := fuzzSeed{1, 1, []int{0, 0, 0, 0, 0, 0}, [][3]int{{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {3, 4, 0}, {4, 5, 0}, {5, 0, 0}}}
	labeled := fuzzSeed{3, 3, []int{0, 1, 2, 1}, [][3]int{{0, 1, 0}, {1, 2, 1}, {2, 3, 2}, {3, 0, 1}, {1, 3, 0}}}
	single := fuzzSeed{1, 1, []int{0}, nil}

	perm := func(s fuzzSeed, order ...byte) []byte {
		return append(append(s.encode(), 0), order...)
	}
	pair := func(a, b fuzzSeed) []byte {
		return append(append(a.encode(), 1), b.encode()...)
	}
	return map[string][]byte{
		"triangle-perm":       perm(triangle, 1, 0, 2, 1),
		"triangle-vs-path":    pair(triangle, path),
		"loops-perm":          perm(loops, 0, 2, 1),
		"parallel-vs-anti":    pair(parallel, antiParallel),
		"parallel-perm":       perm(parallel, 0, 1, 0),
		"star-perm":           perm(star, 4, 3, 2, 1, 0, 3, 1, 2, 0),
		"two-c3-vs-c6":        pair(twoC3, c6),
		"c6-perm":             perm(c6, 5, 1, 3, 0, 2, 4, 2, 0, 1),
		"labeled-perm":        perm(labeled, 2, 0, 1, 3, 1, 0),
		"labeled-vs-triangle": pair(labeled, triangle),
		"single-vs-single":    pair(single, single),
		"empty":               {},
	}
}

// TestFuzzSeedCorpus keeps testdata/fuzz/FuzzCodeIsomorphic in step
// with fuzzSeedCorpus; regenerate it with
//
//	go test ./internal/iso -run TestFuzzSeedCorpus -update-corpus
//
// Inputs the fuzzer adds there (crash regressions) are left alone.
func TestFuzzSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzCodeIsomorphic")
	for name, data := range fuzzSeedCorpus() {
		want := []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data))
		path := filepath.Join(dir, "seed-"+name)
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s is stale or missing (err %v); rerun with -update-corpus", path, err)
		}
	}
}
