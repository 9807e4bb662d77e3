// Package iso implements subgraph isomorphism, graph isomorphism and
// exact canonical codes for the labeled directed multigraphs of
// package graph.
//
// Section 4 of the paper defines when two subgraphs support the same
// pattern: there must be a bijection between their vertices that
// preserves vertex labels and maps every labeled edge onto a
// correspondingly labeled edge. This package supplies exactly that
// matching relation, used by both the FSG reimplementation (support
// counting, candidate deduplication) and the SUBDUE reimplementation
// (instance discovery).
package iso

import (
	"sort"

	"tnkd/internal/graph"
)

// Embedding records one occurrence of a pattern inside a target
// graph: Verts[pv] is the target vertex matched by pattern vertex pv
// and Edges[pe] the target edge matched by pattern edge pe. The
// mapping is injective on vertices and on edges, so multigraph
// instances consume distinct parallel edges. Slots are indexed by
// pattern ID, so every function that returns embeddings requires a
// pattern with dense IDs (see requireDenseIDs). Two small slices
// instead of two maps keep storing and extending the hundreds of
// thousands of embeddings in internal/pattern cheap.
type Embedding struct {
	Verts []graph.VertexID
	Edges []graph.EdgeID
}

// matcher holds the state of one backtracking search. All per-step
// state lives in dense slice-backed arrays sized to the pattern and
// target graphs (indexed by vertex/edge ID), replacing the map-backed
// state that dominated the profile of support counting: assignment,
// rollback and membership tests are plain array stores with no
// hashing and no allocation on the search path.
type matcher struct {
	pattern, target *graph.Graph

	order  []graph.VertexID // pattern vertex assignment order
	pEdges []graph.EdgeID   // live pattern edges, ascending

	assigned   []graph.VertexID // pattern vertex ID -> target vertex (-1 unassigned)
	usedVertex []bool           // target vertex ID in use
	usedEdge   []bool           // target edge ID in use
	edgeMap    []graph.EdgeID   // pattern edge ID -> target edge (-1 unassigned)

	// excluded*/restrict* bar target IDs from the search, indexed by
	// target ID; nil means no such constraint. FindNonOverlapping
	// excludes each instance it takes, Reanchorer restricts every
	// search to one candidate instance.
	excludedEdge   []bool
	excludedVertex []bool
	restrictVertex []bool
	restrictEdge   []bool

	// candScratch[d] is reused by candidates() at search depth d to
	// collect and deduplicate candidate vertices without allocating.
	// One buffer per depth: an outer depth is still iterating its
	// slice while deeper recursion levels build theirs.
	candScratch [][]graph.VertexID
	candSeen    []bool // target vertex ID already collected (reset per call)

	limit int
	// collect materialises every hit into results (dense-ID patterns
	// only); otherwise hits are only counted in found, which works
	// for any pattern.
	collect bool
	found   int
	results []Embedding
	// maxSteps bounds the number of search-tree nodes expanded; 0
	// means unbounded. Exceeding the budget aborts the search with
	// whatever results were found.
	maxSteps int
	steps    int
	aborted  bool
}

// newMatcher builds the dense search state for one target/pattern
// pair.
func newMatcher(target, pattern *graph.Graph, opts Options, collect bool) *matcher {
	m := &matcher{
		pattern:    pattern,
		target:     target,
		order:      searchOrder(pattern),
		pEdges:     pattern.Edges(),
		assigned:   make([]graph.VertexID, pattern.VertexCap()),
		usedVertex: make([]bool, target.VertexCap()),
		usedEdge:   make([]bool, target.EdgeCap()),
		edgeMap:    make([]graph.EdgeID, pattern.EdgeCap()),
		candSeen:   make([]bool, target.VertexCap()),
		limit:      opts.Limit,
		collect:    collect,
		maxSteps:   opts.MaxSteps,
	}
	m.candScratch = make([][]graph.VertexID, len(m.order))
	for i := range m.assigned {
		m.assigned[i] = -1
	}
	for i := range m.edgeMap {
		m.edgeMap[i] = -1
	}
	return m
}

// resetSearch clears per-search state in O(pattern) — after a search
// ends, the only live entries in the dense arrays are the current
// (possibly partial, on abort) assignment — so the matcher can run
// again against the same target without reallocating its graph-sized
// state. Exclusions and restrictions persist.
func (m *matcher) resetSearch() {
	for _, pv := range m.order {
		if tv := m.assigned[pv]; tv >= 0 {
			m.usedVertex[tv] = false
			m.assigned[pv] = -1
		}
	}
	for _, pe := range m.pEdges {
		if te := m.edgeMap[pe]; te >= 0 {
			m.usedEdge[te] = false
			m.edgeMap[pe] = -1
		}
	}
	m.found = 0
	m.results = nil
	m.steps = 0
	m.aborted = false
}

// Options tunes a matching call.
type Options struct {
	// Limit stops after this many embeddings (<= 0 finds all).
	Limit int
	// MaxSteps bounds backtracking-node expansions (<= 0 unbounded);
	// searches that exceed it return partial results.
	MaxSteps int
}

// requireDenseIDs enforces the contract of every function that
// returns embeddings: the pattern's vertex IDs are exactly
// [0, NumVertices) and its edge IDs [0, NumEdges), as for every graph
// built by New or Clone plus AddVertex/AddEdge. A pattern with holes
// (after RemoveVertex or RemoveEdge) would leave -1 slots in its
// embeddings; Compact it first.
func requireDenseIDs(pattern *graph.Graph) {
	if pattern.VertexCap() != pattern.NumVertices() || pattern.EdgeCap() != pattern.NumEdges() {
		panic("iso: a pattern whose embeddings are returned must have dense vertex and edge IDs (no removed vertices or edges); Compact it first")
	}
}

// fits reports whether pattern is non-empty and no larger than
// target, the precondition for any embedding.
func fits(target, pattern *graph.Graph) bool {
	return pattern.NumVertices() > 0 && pattern.NumVertices() <= target.NumVertices() &&
		pattern.NumEdges() <= target.NumEdges()
}

// Embeddings enumerates the embeddings of pattern into target under
// the Section 4 matching relation. The pattern must have dense IDs.
// Results are deterministic for identical inputs. The second result
// reports whether the search ran to completion (false when
// Options.MaxSteps aborted it, in which case the list may be
// incomplete).
func Embeddings(target, pattern *graph.Graph, opts Options) ([]Embedding, bool) {
	requireDenseIDs(pattern)
	if !fits(target, pattern) {
		return nil, true
	}
	m := newMatcher(target, pattern, opts, true)
	m.search(0)
	return m.results, !m.aborted
}

// Contains reports whether target contains at least one embedding of
// pattern. Any pattern is accepted, holes in its IDs included.
func Contains(target, pattern *graph.Graph) bool {
	return CountEmbeddings(target, pattern, 1) > 0
}

// CountEmbeddings returns the number of embeddings of pattern in
// target, up to limit (<= 0 for all). Automorphic images of the same
// subgraph are counted separately. Hits are counted, not
// materialised, so any pattern is accepted.
func CountEmbeddings(target, pattern *graph.Graph, limit int) int {
	if !fits(target, pattern) {
		return 0
	}
	m := newMatcher(target, pattern, Options{Limit: limit}, false)
	m.search(0)
	return m.found
}

// searchOrder returns the pattern vertices ordered so that after the
// first, every vertex is adjacent to an earlier one when possible
// (connected patterns then never branch on disconnected candidates).
// Ties break toward higher degree for earlier pruning.
func searchOrder(p *graph.Graph) []graph.VertexID {
	vs := p.Vertices()
	if len(vs) == 0 {
		return nil
	}
	sort.Slice(vs, func(i, j int) bool {
		di, dj := p.Degree(vs[i]), p.Degree(vs[j])
		if di != dj {
			return di > dj
		}
		return vs[i] < vs[j]
	})
	order := []graph.VertexID{vs[0]}
	placed := map[graph.VertexID]bool{vs[0]: true}
	for len(order) < len(vs) {
		best := graph.VertexID(-1)
		bestDeg := -1
		// Prefer vertices adjacent to the placed set.
		for _, v := range vs {
			if placed[v] {
				continue
			}
			adj := false
			for _, u := range p.Neighbors(v) {
				if placed[u] {
					adj = true
					break
				}
			}
			if adj && p.Degree(v) > bestDeg {
				best, bestDeg = v, p.Degree(v)
			}
		}
		if best == -1 {
			for _, v := range vs {
				if !placed[v] {
					best = v
					break
				}
			}
		}
		order = append(order, best)
		placed[best] = true
	}
	return order
}

func (m *matcher) search(depth int) bool {
	if m.maxSteps > 0 {
		m.steps++
		if m.steps > m.maxSteps {
			m.aborted = true
			return true // stop everything
		}
	}
	if depth == len(m.order) {
		m.found++
		if m.collect {
			m.results = append(m.results, m.emit())
		}
		return m.limit > 0 && m.found >= m.limit
	}
	pv := m.order[depth]
	for _, tv := range m.candidates(depth, pv) {
		if m.usedVertex[tv] || (m.excludedVertex != nil && m.excludedVertex[tv]) {
			continue
		}
		if m.restrictVertex != nil && !m.restrictVertex[tv] {
			continue
		}
		chosen, ok := m.tryAssign(pv, tv)
		if !ok {
			continue
		}
		m.assigned[pv] = tv
		m.usedVertex[tv] = true
		if m.search(depth + 1) {
			return true
		}
		m.unassign(pv, tv, chosen)
	}
	return false
}

// emit materialises the current assignment. The pattern has dense
// IDs, so assigned and edgeMap are fully populated over [0, cap).
func (m *matcher) emit() Embedding {
	e := Embedding{
		Verts: make([]graph.VertexID, len(m.assigned)),
		Edges: make([]graph.EdgeID, len(m.edgeMap)),
	}
	copy(e.Verts, m.assigned)
	copy(e.Edges, m.edgeMap)
	return e
}

// candidates returns plausible target vertices for pattern vertex pv.
// If pv has an already-assigned neighbor, candidates come from that
// neighbor's label-indexed adjacency (only target edges carrying the
// anchoring pattern edge's label are considered); otherwise the
// target's vertices with pv's label are scanned. The returned slice
// is the depth's scratch buffer, valid until the next call at the
// same depth.
func (m *matcher) candidates(depth int, pv graph.VertexID) []graph.VertexID {
	plabel := m.pattern.Vertex(pv).Label
	// Find an assigned pattern neighbor to anchor the candidate set.
	for _, pe := range m.pattern.OutEdges(pv) {
		ped := m.pattern.Edge(pe)
		if tv := m.assigned[ped.To]; tv >= 0 {
			return m.collectAnchored(depth, m.target.InEdgesLabeled(tv, ped.Label), true, plabel, pv)
		}
	}
	for _, pe := range m.pattern.InEdges(pv) {
		ped := m.pattern.Edge(pe)
		if tv := m.assigned[ped.From]; tv >= 0 {
			return m.collectAnchored(depth, m.target.OutEdgesLabeled(tv, ped.Label), false, plabel, pv)
		}
	}
	return m.filterCands(depth, m.target.VerticesWithLabel(plabel), plabel, pv)
}

// collectAnchored gathers the distinct endpoints (From when fromSide,
// else To) of the given target edges into the depth's scratch slice,
// then filters by label and degree.
func (m *matcher) collectAnchored(depth int, edges []graph.EdgeID, fromSide bool, plabel string, pv graph.VertexID) []graph.VertexID {
	cands := m.candScratch[depth][:0]
	for _, e := range edges {
		ed := m.target.Edge(e)
		v := ed.To
		if fromSide {
			v = ed.From
		}
		if !m.candSeen[v] {
			m.candSeen[v] = true
			cands = append(cands, v)
		}
	}
	for _, v := range cands {
		m.candSeen[v] = false
	}
	m.candScratch[depth] = cands
	return m.filterCands(depth, cands, plabel, pv)
}

// filterCands keeps candidates whose label and degrees are compatible
// with pv, writing into the depth's scratch buffer. When cands is
// that same buffer the filter runs in place (the write index never
// passes the read index); index-owned slices are never modified.
func (m *matcher) filterCands(depth int, cands []graph.VertexID, plabel string, pv graph.VertexID) []graph.VertexID {
	pOut, pIn := m.pattern.OutDegree(pv), m.pattern.InDegree(pv)
	res := m.candScratch[depth][:0]
	if cap(res) < len(cands) {
		res = make([]graph.VertexID, 0, len(cands))
	}
	for _, tv := range cands {
		if m.target.Vertex(tv).Label != plabel {
			continue
		}
		if m.target.OutDegree(tv) < pOut || m.target.InDegree(tv) < pIn {
			continue
		}
		res = append(res, tv)
	}
	m.candScratch[depth] = res
	return res
}

// tryAssign checks that mapping pv -> tv is consistent with edges to
// already-assigned vertices, greedily reserving one unused target
// edge per pattern edge. It returns the reserved pattern edges for
// rollback.
func (m *matcher) tryAssign(pv, tv graph.VertexID) ([]graph.EdgeID, bool) {
	var reserved []graph.EdgeID
	rollback := func() {
		for _, pe := range reserved {
			te := m.edgeMap[pe]
			m.edgeMap[pe] = -1
			m.usedEdge[te] = false
		}
	}
	// Outgoing pattern edges pv -> assigned. A self-loop's endpoint is
	// pv itself, not yet in m.assigned (search records the assignment
	// only after tryAssign succeeds), so it anchors on tv directly —
	// loop edges must reserve distinct target loops like any other
	// parallel edge class, or multiplicities would go unchecked.
	for _, pe := range m.pattern.OutEdges(pv) {
		ped := m.pattern.Edge(pe)
		tu := m.assigned[ped.To]
		if ped.To == pv {
			tu = tv
		}
		if tu < 0 {
			continue
		}
		if !m.reserveEdge(pe, tv, tu, ped.Label, &reserved) {
			rollback()
			return nil, false
		}
	}
	// Incoming pattern edges assigned -> pv.
	for _, pe := range m.pattern.InEdges(pv) {
		ped := m.pattern.Edge(pe)
		tu := m.assigned[ped.From]
		if tu < 0 {
			continue
		}
		if m.edgeMap[pe] >= 0 {
			continue // self-loop already reserved via the OutEdges pass
		}
		if !m.reserveEdge(pe, tu, tv, ped.Label, &reserved) {
			rollback()
			return nil, false
		}
	}
	return reserved, true
}

// reserveEdge finds an unused target edge from -> to with the given
// label and reserves it for pattern edge pe. The label index narrows
// the scan to correctly labeled edges up front.
func (m *matcher) reserveEdge(pe graph.EdgeID, from, to graph.VertexID, label string, reserved *[]graph.EdgeID) bool {
	for _, te := range m.target.OutEdgesLabeled(from, label) {
		if m.target.Edge(te).To != to {
			continue
		}
		if m.usedEdge[te] || (m.excludedEdge != nil && m.excludedEdge[te]) {
			continue
		}
		if m.restrictEdge != nil && !m.restrictEdge[te] {
			continue
		}
		m.usedEdge[te] = true
		m.edgeMap[pe] = te
		*reserved = append(*reserved, pe)
		return true
	}
	return false
}

func (m *matcher) unassign(pv, tv graph.VertexID, reserved []graph.EdgeID) {
	for _, pe := range reserved {
		te := m.edgeMap[pe]
		m.edgeMap[pe] = -1
		m.usedEdge[te] = false
	}
	m.assigned[pv] = -1
	m.usedVertex[tv] = false
}

// Isomorphic reports whether a and b are isomorphic labeled directed
// multigraphs (Section 4's "identical" relation).
func Isomorphic(a, b *graph.Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	if a.NumVertices() == 0 {
		return true
	}
	// An injective, edge-injective embedding between equal-size
	// graphs is a bijection on both vertices and edges.
	return Contains(b, a)
}

// Reanchorer repeatedly verifies that concrete target subgraphs are
// instances of one fixed pattern, returning embeddings keyed to that
// pattern's IDs. It reuses one matcher's dense graph-sized state
// across calls — each Reanchor costs O(pattern), not O(target) —
// which is what SUBDUE's instance re-anchoring needs: one pattern,
// one big target, many candidate subgraphs. Not safe for concurrent
// use; create one per goroutine.
type Reanchorer struct {
	m *matcher
}

// NewReanchorer prepares re-anchoring of subgraphs of target onto
// pattern, which must have dense IDs. maxSteps bounds each search
// (<= 0 unbounded).
func NewReanchorer(target, pattern *graph.Graph, maxSteps int) *Reanchorer {
	requireDenseIDs(pattern)
	m := newMatcher(target, pattern, Options{Limit: 1, MaxSteps: maxSteps}, true)
	m.restrictVertex = make([]bool, target.VertexCap())
	m.restrictEdge = make([]bool, target.EdgeCap())
	return &Reanchorer{m: m}
}

// Reanchor maps the pattern onto exactly the target vertices and
// edges covered by emb (an embedding of some isomorphic construction
// of the pattern), returning an embedding keyed to the pattern's own
// vertex/edge IDs.
func (r *Reanchorer) Reanchor(emb Embedding) (Embedding, bool) {
	m := r.m
	if m.pattern.NumVertices() != len(emb.Verts) {
		return Embedding{}, false
	}
	r.restrict(emb, true)
	m.search(0)
	var out Embedding
	ok := len(m.results) > 0
	if ok {
		out = m.results[0]
	}
	r.restrict(emb, false)
	m.resetSearch()
	return out, ok
}

// restrict sets (on) or clears the search restriction to emb's
// target vertices and edges.
func (r *Reanchorer) restrict(emb Embedding, on bool) {
	for _, tv := range emb.Verts {
		r.m.restrictVertex[tv] = on
	}
	for _, te := range emb.Edges {
		r.m.restrictEdge[te] = on
	}
}

// GreedyNonOverlap selects a maximal prefix-greedy subset of
// embeddings that are pairwise vertex- and edge-disjoint — the
// "no overlap" instance count SUBDUE evaluates with.
func GreedyNonOverlap(embs []Embedding) []Embedding {
	usedV := make(map[graph.VertexID]bool)
	usedE := make(map[graph.EdgeID]bool)
	var out []Embedding
	for _, emb := range embs {
		ok := true
		for _, tv := range emb.Verts {
			if usedV[tv] {
				ok = false
				break
			}
		}
		if ok {
			for _, te := range emb.Edges {
				if usedE[te] {
					ok = false
					break
				}
			}
		}
		if !ok {
			continue
		}
		for _, tv := range emb.Verts {
			usedV[tv] = true
		}
		for _, te := range emb.Edges {
			usedE[te] = true
		}
		out = append(out, emb)
	}
	return out
}

// FindNonOverlapping greedily extracts pairwise vertex- and
// edge-disjoint instances of pattern (dense IDs) in target, up to
// maxInstances (<= 0 for all). Vertex-disjointness is the "no
// overlap" notion of the paper's SUBDUE runs and guarantees
// termination even for edgeless patterns.
func FindNonOverlapping(target, pattern *graph.Graph, maxInstances, maxSteps int) []Embedding {
	requireDenseIDs(pattern)
	if !fits(target, pattern) {
		return nil
	}
	// One matcher serves every extraction round: exclusions
	// accumulate in its dense state and each round resets in
	// O(pattern), instead of rebuilding graph-sized state per
	// instance.
	m := newMatcher(target, pattern, Options{Limit: 1, MaxSteps: maxSteps}, true)
	m.excludedVertex = make([]bool, target.VertexCap())
	m.excludedEdge = make([]bool, target.EdgeCap())
	var result []Embedding
	for maxInstances <= 0 || len(result) < maxInstances {
		m.search(0)
		if len(m.results) == 0 {
			return result
		}
		emb := m.results[0]
		result = append(result, emb)
		for _, tv := range emb.Verts {
			m.excludedVertex[tv] = true
		}
		for _, te := range emb.Edges {
			m.excludedEdge[te] = true
		}
		m.resetSearch()
	}
	return result
}
