package fsg

import (
	"math/rand"
	"strings"
	"testing"

	"tnkd/internal/graph"
	"tnkd/internal/iso"
	"tnkd/internal/pattern"
)

// prefixTIDs builds the retirement set {0, 1, ..., k-1}.
func prefixTIDs(k int) pattern.TIDSet {
	var s pattern.TIDSet
	for i := 0; i < k; i++ {
		s.Add(i)
	}
	return s
}

// TestAdvanceWindowMatchesFreshMine is the sliding-window property
// test: over 40 random slide schedules (random stream, random initial
// window, three chained slides each retiring and appending random
// amounts under a drifting threshold) × the three embedding-budget
// tiers, every AdvanceWindow step must produce a pattern set
// identical (codes, supports, TID lists, order) to a fresh mine of
// exactly the window's transactions. Most slides retire a prefix —
// the production shape, exercising the Offset(-k) renumber — and one
// slide per schedule retires a random scattered subset to cover the
// rank-table remap. The suite must see real retirement, scattered
// retirement, and threshold movement in both directions, or it fails
// as vacuous.
func TestAdvanceWindowMatchesFreshMine(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	budgets := []int{-1, 0, 3} // unlimited, default, starved-to-seeds
	totalRetired, scatteredSlides, raised, lowered := 0, 0, 0, 0
	for trial := 0; trial < 40; trial++ {
		stream := randomTxns(rng, 16+rng.Intn(10), 5, 8, 2, 2)
		budget := budgets[trial%len(budgets)]
		minSup := 2 + rng.Intn(2)
		opts := Options{MinSupport: minSup, MaxEdges: 4, MaxEmbeddings: budget}

		hi := 4 + rng.Intn(5)
		curTxns := stream[:hi]
		cur, err := Mine(curTxns, opts)
		if err != nil {
			t.Fatal(err)
		}

		for slide := 0; slide < 3; slide++ {
			retireCount := rng.Intn(len(curTxns) + 1)
			addCount := rng.Intn(len(stream) - hi + 1)
			newMinSup := minSup + rng.Intn(3) - 1
			if newMinSup < 1 {
				newMinSup = 1
			}
			var retired pattern.TIDSet
			if slide == 1 && retireCount > 0 && retireCount < len(curTxns) {
				// Scattered retirement: a random subset, not a prefix.
				retired = pattern.TIDSetFromSlice(rng.Perm(len(curTxns))[:retireCount])
				scatteredSlides++
			} else {
				retired = prefixTIDs(retireCount)
			}
			added := stream[hi : hi+addCount]
			windowTxns := append(append([]*graph.Graph{}, RetainTxns(curTxns, retired)...), added...)

			sopts := opts
			sopts.MinSupport = newMinSup
			prior := Prior{Txns: curTxns, Levels: groupByEdges(cur), MinSupport: minSup, Generation: slide}
			got, err := AdvanceWindow(prior, added, retired, sopts)
			if err != nil {
				t.Fatalf("trial %d slide %d: %v", trial, slide, err)
			}
			want, err := Mine(windowTxns, sopts)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := renderMinedSet(got), renderMinedSet(want); g != w {
				t.Fatalf("trial %d slide %d (retire %d of %d, add %d, support %d->%d, budget %d): window diverges from fresh mine\n--- fresh ---\n%s--- window ---\n%s",
					trial, slide, retireCount, len(curTxns), addCount, minSup, newMinSup, budget, w, g)
			}

			totalRetired += retireCount
			if newMinSup > minSup {
				raised++
			} else if newMinSup < minSup {
				lowered++
			}
			cur, curTxns, hi, minSup = got, windowTxns, hi+addCount, newMinSup
		}
	}
	if totalRetired == 0 {
		t.Fatal("no transactions retired across the whole suite; the retirement path went untested")
	}
	if scatteredSlides == 0 {
		t.Fatal("no scattered retirement across the whole suite; the rank-table remap went untested")
	}
	if raised == 0 || lowered == 0 {
		t.Fatalf("threshold drift untested (raised %d, lowered %d)", raised, lowered)
	}
}

// TestRetireDeltaMatchesFreshMine checks the retirement stage alone
// against a fresh mine of the survivors — including the embedding
// lists, which AdvanceWindow's dump comparison cannot see: every
// complete list the retirement kept must still be the exact full
// enumeration for its (renumbered) transaction.
func TestRetireDeltaMatchesFreshMine(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	budgets := []int{-1, 0, 3}
	for trial := 0; trial < 20; trial++ {
		txns := randomTxns(rng, 10+rng.Intn(8), 5, 8, 2, 2)
		minSup := 2
		opts := Options{MinSupport: minSup, MaxEdges: 4, MaxEmbeddings: budgets[trial%len(budgets)]}
		prev, err := Mine(txns, opts)
		if err != nil {
			t.Fatal(err)
		}
		k := rng.Intn(len(txns))
		var retired pattern.TIDSet
		if trial%2 == 0 {
			retired = prefixTIDs(k)
		} else {
			retired = pattern.TIDSetFromSlice(rng.Perm(len(txns))[:k])
		}
		survivors := RetainTxns(txns, retired)

		prior := Prior{Txns: txns, Levels: groupByEdges(prev), MinSupport: minSup}
		got, err := RetireDelta(prior, retired, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Mine(survivors, opts)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := renderMinedSet(got), renderMinedSet(want); g != w {
			t.Fatalf("trial %d (retire %d of %d): retirement diverges from fresh mine of survivors\n--- fresh ---\n%s--- retired ---\n%s",
				trial, k, len(txns), w, g)
		}
		for i := range got.Patterns {
			p := &got.Patterns[i]
			if !p.HasEmbeddings() {
				continue
			}
			for j, tid := range p.TIDs.All() {
				if want := iso.CountEmbeddings(survivors[tid], p.Graph, 0); len(p.Embs[j]) != want {
					t.Fatalf("trial %d pattern %q tid %d: retirement kept %d embeddings, full enumeration has %d",
						trial, p.Code, tid, len(p.Embs[j]), want)
				}
			}
		}
	}
}

// TestAdvanceWindowDeterministicAcrossParallelism slides the same
// window serially and with worker pools; under -race this checks both
// determinism and the concurrent fold path downstream of retirement.
func TestAdvanceWindowDeterministicAcrossParallelism(t *testing.T) {
	txns := motifTxns(34, 13)
	opts := Options{MinSupport: 5, MaxEdges: 4}
	prev, err := Mine(txns[:26], opts)
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, par := range []int{1, 2, 3, 4, 0} {
		o := opts
		o.Parallelism = par
		prior := Prior{Txns: txns[:26], Levels: groupByEdges(prev), MinSupport: opts.MinSupport}
		res, err := AdvanceWindow(prior, txns[26:], prefixTIDs(6), o)
		if err != nil {
			t.Fatal(err)
		}
		got := renderResult(res)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("parallelism %d changed the window result", par)
		}
	}
}

// TestRetireDeltaRefusals pins the exactness guardrails: an unknown
// prior threshold, a lowered threshold, and out-of-range retired TIDs
// all fail loudly instead of silently under-reporting.
func TestRetireDeltaRefusals(t *testing.T) {
	txns := motifTxns(10, 3)
	opts := Options{MinSupport: 2, MaxEdges: 3}
	prev, err := Mine(txns, opts)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(minSup int) Prior {
		return Prior{Txns: txns, Levels: groupByEdges(prev), MinSupport: minSup}
	}
	if _, err := RetireDelta(mk(0), prefixTIDs(2), opts); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("unknown prior threshold not rejected: %v", err)
	}
	low := opts
	low.MinSupport = 1
	if _, err := RetireDelta(mk(2), prefixTIDs(2), low); err == nil || !strings.Contains(err.Error(), "below the prior's") {
		t.Fatalf("lowered threshold not rejected: %v", err)
	}
	if _, err := RetireDelta(mk(2), pattern.NewTIDSet(len(txns)), opts); err == nil || !strings.Contains(err.Error(), "outside the prior's transaction range") {
		t.Fatalf("out-of-range retired TID not rejected: %v", err)
	}
	// AdvanceWindow surfaces the same guardrail when retirement is
	// actually needed, and sidesteps it when nothing retires.
	if _, err := AdvanceWindow(mk(0), nil, prefixTIDs(2), opts); err == nil {
		t.Fatal("AdvanceWindow accepted retirement from an unknown-threshold prior")
	}
	if _, err := AdvanceWindow(mk(0), txns[:2], pattern.TIDSet{}, opts); err != nil {
		t.Fatalf("AdvanceWindow with empty retirement should degrade to a pure fold: %v", err)
	}
}
