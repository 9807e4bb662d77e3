package main

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"
)

func TestQueriesDeterministicPerSeed(t *testing.T) {
	codes := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	labels := []string{"x", "y"}
	draw := func(seed int64) []query {
		src := newQuerySource(seed, fullMix, codes, labels)
		var out []query
		for i := 0; i < 200; i++ {
			out = append(out, src.next())
		}
		return out
	}
	a, b := draw(7), draw(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed drew two different query sequences")
	}
	if reflect.DeepEqual(a, draw(8)) {
		t.Fatal("two seeds drew the same query sequence")
	}
	counts := [numClasses]int{}
	for _, q := range a {
		counts[q.class]++
	}
	if counts[classPoint] != 80 || counts[classBatch] != 40 || counts[classSupport] != 40 ||
		counts[classLocations] != 20 || counts[classStores] != 20 {
		t.Errorf("class mix %v, want 80/40/40/20/20", counts)
	}
}

// TestSampledReachesEveryCheckedClass draws the full mix at the full
// sampling interval and requires the response check to reach point and
// support queries alike, at about one in checkEvery of each.
func TestSampledReachesEveryCheckedClass(t *testing.T) {
	every := fullSizes().checkEvery
	src := newQuerySource(1, fullMix, []string{"a", "b", "c"}, []string{"x"})
	drawn, checked := [numClasses]int{}, [numClasses]int{}
	for i := 0; i < 100*every; i++ {
		q := src.next()
		drawn[q.class]++
		if sampled(q, every) {
			checked[q.class]++
		}
	}
	for c := range drawn {
		want := 0
		if c == classPoint || c == classSupport {
			want = (drawn[c] + every - 1) / every
		}
		if checked[c] != want {
			t.Errorf("%s: checked %d of %d, want %d", classNames[c], checked[c], drawn[c], want)
		}
	}
}

func TestInputsDeterministicPerSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("mines twice")
	}
	cfg := config{seed: 5, size: tinySizes(), dir: t.TempDir()}
	a, err := ingestSetup(cfg, filepath.Join(cfg.dir, "a.tnd"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ingestSetup(cfg, filepath.Join(cfg.dir, "b.tnd"))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.batches) != len(b.batches) {
		t.Fatalf("%d batches, then %d", len(a.batches), len(b.batches))
	}
	for i := range a.batches {
		if !bytes.Equal(a.batches[i], b.batches[i]) {
			t.Fatalf("batch %d differs between two set-ups", i)
		}
	}
	da, err := storeDigest(a.storePath)
	if err != nil {
		t.Fatal(err)
	}
	db, err := storeDigest(b.storePath)
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Fatalf("seed stores differ: %s vs %s", da, db)
	}
}
