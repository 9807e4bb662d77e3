package fsg

// Transaction retirement and the sliding-window step built on it.
//
// Retirement is the non-monotone half of streaming: transactions
// leave the set, so supports can only fall. Downward closure turns
// that into a gift. Every pattern frequent over the survivors at a
// threshold no lower than the prior run's was already frequent over
// the full prior set — support is monotone under adding transactions
// back — so it sits in the prior's levels verbatim. Retirement is
// therefore a pure filter: subtract the retired TIDs from every
// stored column (a word-parallel TIDSet.AndNot), drop what falls
// below threshold, and no upward "resurrect" search is ever needed.
// Demotion cascades for free too: a superpattern's support is at most
// its subpattern's, so anything above a dropped pattern drops with
// it, level by level, without the code looking.
//
// The exactness precondition is the mirror image of the delta fold's:
// RetireDelta needs the prior's own threshold to be known (> 0) and
// the retirement threshold to be at least that. A *lower* threshold
// would admit patterns that were sub-threshold before retirement,
// which only a re-mine can discover — RetireDelta refuses rather than
// silently under-report.
//
// AdvanceWindow composes retire + append into the one step a sliding
// window needs: retire the expiring TIDs at the prior's own threshold
// (keeping every pattern the append fold might reuse), renumber the
// survivors to the fresh-mine TID space, then MineDelta the arriving
// transactions at the caller's threshold. MineDelta is exact for any
// threshold relationship, so the composition is exact, and the output
// is byte-identical — codes, supports, TID lists, level order — to a
// fresh mine of exactly the window's transactions.

import (
	"fmt"
	"sort"
	"time"

	"tnkd/internal/graph"
	"tnkd/internal/pattern"
)

// RetireDelta removes the retired transactions from a previous run:
// every stored pattern's TID column is subtracted word-parallel
// (pattern.TIDSet.AndNot), surviving columns are renumbered to the
// post-retirement TID space (survivor i of the prior becomes TID i),
// retired transactions' embedding lists are pruned, and patterns
// whose support falls below opts.MinSupport are dropped. The result
// is identical to mining the surviving transactions from scratch with
// the same Options — downward closure guarantees no frequent pattern
// of the survivors is missing from the prior (see the package-section
// comment above), so the filter is exhaustive, not approximate.
//
// Exactness requires prior.MinSupport > 0 (the prior's threshold must
// be known) and opts.MinSupport >= prior.MinSupport; otherwise an
// error is returned and the caller must re-mine from scratch. Every
// retired TID must lie in [0, len(prior.Txns)). Retired TIDs need not
// occur in any pattern. The prior's structural preconditions are
// those of MineDelta (exact codes, one pattern per code per level);
// violations wrap ErrDeltaPrior.
//
// opts.Checkpoint and opts.Progress fire per surviving level exactly
// as in a mine, so a retirement-only generation can stream to a store
// writer. Budget options (MaxCandidates, MaxSteps, MaxEmbeddings) are
// irrelevant here — retirement enumerates nothing — and are ignored
// beyond normalization.
func RetireDelta(prior Prior, retired pattern.TIDSet, opts Options) (*Result, error) {
	opts, err := normalizeOptions(opts)
	if err != nil {
		return nil, err
	}
	if prior.MinSupport <= 0 {
		return nil, fmt.Errorf("fsg: retirement needs the prior's threshold, but it is unknown (store Meta.MinSupport = %d) — re-mine the window from scratch", prior.MinSupport)
	}
	if opts.MinSupport < prior.MinSupport {
		return nil, fmt.Errorf("fsg: retirement threshold %d is below the prior's %d — patterns sub-threshold before retirement could now qualify, which only a fresh mine can discover", opts.MinSupport, prior.MinSupport)
	}
	if retired.Len() > 0 && retired.Max() >= len(prior.Txns) {
		return nil, fmt.Errorf("fsg: retired TID %d outside the prior's transaction range [0, %d)", retired.Max(), len(prior.Txns))
	}
	if _, err := validatePrior(prior); err != nil {
		return nil, err
	}

	// Renumbering: survivor TIDs compact down to 0..n-k-1, matching
	// what a fresh mine of the survivors would assign. The common case
	// — the window's oldest days expiring — retires a prefix [0, k),
	// where the remap is a plain shift (TIDSet.Offset with negative
	// k). Arbitrary retirement sets fall back to a rank table.
	prefix := -1
	if retired.Len() == 0 {
		prefix = 0
	} else if retired.Min() == 0 && retired.Max() == retired.Len()-1 {
		prefix = retired.Len()
	}
	var remap []int
	if prefix < 0 {
		remap = make([]int, len(prior.Txns))
		next := 0
		cur := retired.Cursor()
		for i := range remap {
			if cur.Contains(i) {
				remap[i] = -1
			} else {
				remap[i] = next
				next++
			}
		}
	}

	if l := opts.Logger; l != nil {
		l.Info("retirement start",
			"generation", prior.Generation+1,
			"parent_generation", prior.Generation,
			"prior_txns", len(prior.Txns),
			"retired_tids", retired.Len(),
			"prior_min_support", prior.MinSupport,
			"min_support", opts.MinSupport,
		)
	}

	levels := make([]int, 0, len(prior.Levels))
	for edges := range prior.Levels {
		levels = append(levels, edges)
	}
	sort.Ints(levels)

	res := &Result{}
	for _, edges := range levels {
		levelStart := time.Now()
		pats := prior.Levels[edges]
		var kept []Pattern
		for i := range pats {
			if p, ok := retirePattern(&pats[i], retired, prefix, remap, opts.MinSupport); ok {
				kept = append(kept, p)
			}
		}
		lv := LevelStats{Edges: edges, Candidates: len(pats), Frequent: len(kept), Reused: len(kept)}
		res.Levels = append(res.Levels, lv)
		if opts.Checkpoint != nil && len(kept) > 0 {
			if err := opts.Checkpoint(lv, kept); err != nil {
				return nil, fmt.Errorf("fsg: checkpoint at level %d: %w", edges, err)
			}
		}
		res.Patterns = append(res.Patterns, kept...)
		if opts.Progress != nil {
			opts.Progress(LevelProgress{
				LevelStats: lv,
				Elapsed:    time.Since(levelStart),
				Patterns:   len(res.Patterns),
				Delta:      true,
			})
		}
	}

	if l := opts.Logger; l != nil {
		l.Info("retirement done",
			"generation", prior.Generation+1,
			"levels", len(res.Levels),
			"patterns", len(res.Patterns),
			"dropped", countPriorPatterns(prior)-len(res.Patterns),
		)
	}
	return res, nil
}

// retirePattern applies one retirement to one stored pattern:
// subtract, threshold, renumber, prune embeddings. ok = false when
// the pattern's support fell below minSupport. prefix >= 0 selects
// the prefix-shift remap (retired == [0, prefix)); otherwise remap
// holds the survivor rank table.
func retirePattern(p *Pattern, retired pattern.TIDSet, prefix int, remap []int, minSupport int) (Pattern, bool) {
	kept := p.TIDs.AndNot(retired)
	if kept.Len() < minSupport {
		return Pattern{}, false
	}
	out := *p
	out.Support = kept.Len()
	if prefix == 0 {
		out.TIDs = kept
	} else if prefix > 0 {
		out.TIDs = kept.Offset(-prefix)
	} else {
		var nt pattern.TIDSet
		for _, tid := range kept.All() {
			nt.Add(remap[tid])
		}
		out.TIDs = nt
	}
	if p.Embs != nil {
		// Embedding lists are positional with TIDs.All(); surviving
		// entries keep their order because the renumbering is monotone.
		// A transaction's own list is unaffected by other transactions
		// leaving, so complete lists stay complete.
		embs := p.Embs[:0:0]
		cur := retired.Cursor()
		for pos, tid := range p.TIDs.All() {
			if !cur.Contains(tid) {
				embs = append(embs, p.Embs[pos])
			}
		}
		out.Embs = embs
	}
	if p.Partial.Len() > 0 {
		np := p.Partial.AndNot(retired)
		if prefix > 0 {
			np = np.Offset(-prefix)
		} else if prefix < 0 {
			var nt pattern.TIDSet
			for _, tid := range np.All() {
				nt.Add(remap[tid])
			}
			np = nt
		}
		out.Partial = np
		if np.Len() == 0 {
			// Every partial list was retired: the surviving lists are
			// all complete, so the overflow mark comes off — an empty
			// Partial on an Overflowed pattern would read as "unknown,
			// all seeds" and force needless re-searches.
			out.Overflowed = false
		}
	}
	// An Overflowed pattern with no Partial marks (marks unknown, or a
	// bare column with no embedding lists at all) keeps its flag: the
	// lists' completeness is unknown, and "treat everything as seeds"
	// stays the conservative, exact reading over the survivors.
	return out, true
}

func countPriorPatterns(prior Prior) int {
	n := 0
	for _, pats := range prior.Levels {
		n += len(pats)
	}
	return n
}

// RetainTxns returns the transactions that survive retirement, in
// order — the transaction slice of the successor generation, aligned
// with RetireDelta's renumbered TID columns.
func RetainTxns(txns []*graph.Graph, retired pattern.TIDSet) []*graph.Graph {
	if retired.Len() == 0 {
		return txns
	}
	out := make([]*graph.Graph, 0, len(txns)-retired.Len())
	cur := retired.Cursor()
	for i, t := range txns {
		if !cur.Contains(i) {
			out = append(out, t)
		}
	}
	return out
}

// AdvanceWindow slides a window in one step: retire the expiring
// prior TIDs, then fold the arriving transactions, producing one
// Result (and, via opts.Checkpoint, one store write) whose pattern
// set is byte-identical to a fresh mine of exactly the window's
// transactions — RetainTxns(prior.Txns, retired) ++ added — with the
// same Options.
//
// The retirement stage runs at the prior's own threshold (the highest
// threshold that keeps every pattern the fold stage might reuse) with
// Checkpoint and Progress stripped; only the fold stage, which always
// runs, streams to the caller's hooks. opts.MinSupport is the final
// window threshold and may sit on either side of the prior's:
// MineDelta stays exact in both directions (a lower threshold
// re-scans level 1 in full and promotes, a higher one filters). The
// retirement-stage preconditions apply whenever retired is non-empty:
// prior.MinSupport must be known (> 0), else the window must be
// re-mined from scratch. An empty retired set degrades to a pure
// MineDelta fold; an empty added set is a pure retirement.
func AdvanceWindow(prior Prior, added []*graph.Graph, retired pattern.TIDSet, opts Options) (*Result, error) {
	if retired.Len() == 0 {
		return MineDelta(prior, added, opts)
	}
	ropts := opts
	ropts.MinSupport = prior.MinSupport
	ropts.Checkpoint = nil
	ropts.Progress = nil
	r, err := RetireDelta(prior, retired, ropts)
	if err != nil {
		return nil, err
	}
	mid := Prior{
		Txns:       RetainTxns(prior.Txns, retired),
		Levels:     groupPatternsByEdges(r.Patterns),
		MinSupport: prior.MinSupport,
		Generation: prior.Generation,
	}
	return MineDelta(mid, added, opts)
}

// groupPatternsByEdges rebuilds a Prior.Levels map from a flat pattern slice,
// preserving within-level order.
func groupPatternsByEdges(pats []Pattern) map[int][]Pattern {
	byEdges := make(map[int][]Pattern)
	for i := range pats {
		e := pats[i].Graph.NumEdges()
		byEdges[e] = append(byEdges[e], pats[i])
	}
	return byEdges
}
