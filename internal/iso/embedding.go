package iso

import (
	"tnkd/internal/graph"
)

// UsesVertex reports whether tv is already matched by some pattern
// vertex. Pattern sides are tiny (a few dozen vertices at most), so a
// linear scan beats any hashing.
func (e Embedding) UsesVertex(tv graph.VertexID) bool {
	for _, v := range e.Verts {
		if v == tv {
			return true
		}
	}
	return false
}

// UsesEdge reports whether te is already matched by some pattern
// edge.
func (e Embedding) UsesEdge(te graph.EdgeID) bool {
	for _, t := range e.Edges {
		if t == te {
			return true
		}
	}
	return false
}

// Clone returns a deep copy with room for one more vertex and edge
// (the one-edge extension growth pattern).
func (e Embedding) Clone() Embedding {
	verts := make([]graph.VertexID, len(e.Verts), len(e.Verts)+1)
	copy(verts, e.Verts)
	edges := make([]graph.EdgeID, len(e.Edges), len(e.Edges)+1)
	copy(edges, e.Edges)
	return Embedding{Verts: verts, Edges: edges}
}

// extended returns a copy of e grown by the new edge's target match
// (and, when nv >= 0, the new vertex's).
func (e Embedding) extended(nv graph.VertexID, te graph.EdgeID) Embedding {
	c := e.Clone()
	if nv >= 0 {
		c.Verts = append(c.Verts, nv)
	}
	c.Edges = append(c.Edges, te)
	return c
}

// ExtendEmbedding enumerates the one-edge extensions of emb: given an
// embedding of the parent pattern (child minus newEdge, minus the new
// endpoint if newEdge introduced one) into target, it finds every way
// to extend emb across newEdge and appends the grown embeddings to
// out. Because child was built from the parent by
// Clone (+AddVertex) +AddEdge, IDs are preserved, so a new endpoint is
// recognised by its ID lying beyond emb.Verts.
//
// Embeddings follow the matcher's semantics: one embedding per
// injective vertex map, with each pattern edge carrying the first
// compatible target edge as its witness — parallel duplicate target
// edges do not multiply embeddings. The child pattern must not repeat
// a (from, to, label) edge signature (FSG candidate generation never
// does), so the greedy witness choice is never lossy.
//
// This is the incremental step of FSG-style support counting: every
// embedding of child restricts to exactly one embedding of its
// parent, so extending a complete parent list yields the complete
// child list, each embedding exactly once. limit > 0 stops once out
// holds that many embeddings (existence checks pass 1).
func ExtendEmbedding(target, child *graph.Graph, emb Embedding, newEdge graph.EdgeID, limit int, out []Embedding) []Embedding {
	ed := child.Edge(newEdge)
	fromNew := int(ed.From) >= len(emb.Verts)
	toNew := int(ed.To) >= len(emb.Verts)
	switch {
	case !fromNew && !toNew:
		// New edge between mapped endpoints: the vertex map is already
		// fixed, so the first unused target edge on that lane with the
		// right label is the single witness.
		tf, tt := emb.Verts[ed.From], emb.Verts[ed.To]
		for _, te := range target.OutEdgesLabeled(tf, ed.Label) {
			if target.Edge(te).To != tt || emb.UsesEdge(te) {
				continue
			}
			out = append(out, emb.extended(-1, te))
			break
		}
	case !fromNew:
		// New edge out of a mapped vertex to a new endpoint: one
		// extension per distinct compatible endpoint (first edge as
		// witness). A target edge into an unmapped vertex cannot
		// already be used (used edges connect mapped vertices), so
		// only injectivity and the endpoint label need checking.
		start := len(out)
		tf := emb.Verts[ed.From]
		label := child.Vertex(ed.To).Label
		for _, te := range target.OutEdgesLabeled(tf, ed.Label) {
			tv := target.Edge(te).To
			if target.Vertex(tv).Label != label || emb.UsesVertex(tv) {
				continue
			}
			if endpointSeen(out[start:], tv) {
				continue
			}
			out = append(out, emb.extended(tv, te))
			if limit > 0 && len(out) >= limit {
				return out
			}
		}
	case !toNew:
		// New edge into a mapped vertex from a new endpoint.
		start := len(out)
		tt := emb.Verts[ed.To]
		label := child.Vertex(ed.From).Label
		for _, te := range target.InEdgesLabeled(tt, ed.Label) {
			tv := target.Edge(te).From
			if target.Vertex(tv).Label != label || emb.UsesVertex(tv) {
				continue
			}
			if endpointSeen(out[start:], tv) {
				continue
			}
			out = append(out, emb.extended(tv, te))
			if limit > 0 && len(out) >= limit {
				return out
			}
		}
	}
	// Both endpoints new would mean a disconnected extension; one-edge
	// candidate generation never produces one.
	return out
}

// endpointSeen reports whether one of this call's extensions already
// mapped the new pattern vertex (the last Verts slot) to tv —
// deduping parallel target edges to the same endpoint. Extension
// counts per embedding are degree-bounded and small, so a linear scan
// beats a set.
func endpointSeen(batch []Embedding, tv graph.VertexID) bool {
	for i := range batch {
		if batch[i].Verts[len(batch[i].Verts)-1] == tv {
			return true
		}
	}
	return false
}
