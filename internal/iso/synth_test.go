package iso_test

import (
	"math/rand"
	"testing"

	"tnkd/internal/graph"
	"tnkd/internal/iso"
	"tnkd/internal/synth"
)

// TestCodeMatchesIsomorphicOnSynthPairs checks equal code ⟺
// isomorphic on seeded graph pairs from the synth generator: planted
// transportation motifs plus noise, the shapes the miners actually
// code. (An external test package, because synth imports iso.)
func TestCodeMatchesIsomorphicOnSynthPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(20050405))
	patterns := synth.DefaultPatterns()
	build := func(seed int64, copies, noise int) *graph.Graph {
		return synth.Plant(synth.PlantConfig{
			Seed:             seed,
			Patterns:         patterns[:1+rng.Intn(len(patterns))],
			CopiesPerPattern: copies,
			NoiseEdges:       noise,
			NoiseLabels:      []string{"w1", "w2"},
		}).Graph
	}
	for trial := 0; trial < 20; trial++ {
		seedA := int64(trial)
		seedB := seedA
		copies := 1 + rng.Intn(3)
		noise := rng.Intn(4)
		if trial%2 == 0 {
			seedB = seedA + 100 // usually a different graph
		}
		a := build(seedA, copies, noise)
		b := build(seedB, copies, noise)
		codeA, codeB := iso.Code(a), iso.Code(b)
		if got, want := codeA == codeB, iso.Isomorphic(a, b); got != want {
			t.Fatalf("trial %d: code equality=%v but Isomorphic=%v (codes %q / %q)",
				trial, got, want, codeA, codeB)
		}
	}
}
