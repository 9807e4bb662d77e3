package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tnkd/internal/graph"
	"tnkd/internal/iso"
	"tnkd/internal/pattern"
)

// TestLocationIndexMatchesLazyInversion: over random stores, the
// persisted location index must equal the inversion computed after
// the fact, record by record, from the decoded embeddings.
func TestLocationIndexMatchesLazyInversion(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		numTxns := 2 + rng.Intn(4)
		txns := make([]*graph.Graph, numTxns)
		for i := range txns {
			txns[i] = randGraph(rng, fmt.Sprintf("t%d", i))
		}
		levels := map[int][]pattern.Pattern{}
		for edges := 1; edges <= 1+rng.Intn(3); edges++ {
			n := 1 + rng.Intn(4)
			for i := 0; i < n; i++ {
				levels[edges] = append(levels[edges], randPattern(rng, edges, txns))
			}
		}

		path := filepath.Join(t.TempDir(), "loc.tnd")
		writeStore(t, path, Meta{Name: "loc", Kind: "fsg", MinSupport: 1}, txns, levels)
		r4, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r4.Close()
		byLabel, noEmb, ok := r4.LocationIndex()
		if !ok {
			t.Fatalf("trial %d: store has no location index", trial)
		}

		// Independent inversion from the decoded records.
		wantByLabel := map[string][]LocationHit{}
		wantNoEmb := 0
		for i := 0; i < r4.NumPatterns(); i++ {
			p, err := r4.Pattern(i)
			if err != nil {
				t.Fatal(err)
			}
			perLabel, err := invertEmbeddings(p, i, r4.Transaction)
			if err != nil {
				t.Fatal(err)
			}
			if perLabel == nil {
				wantNoEmb++
				continue
			}
			for label, h := range perLabel {
				wantByLabel[label] = append(wantByLabel[label], *h)
			}
		}
		if noEmb != wantNoEmb {
			t.Fatalf("trial %d: persisted noEmb=%d, inversion %d", trial, noEmb, wantNoEmb)
		}
		if len(byLabel) != len(wantByLabel) {
			t.Fatalf("trial %d: persisted %d labels, inversion %d", trial, len(byLabel), len(wantByLabel))
		}
		for label, want := range wantByLabel {
			got := byLabel[label]
			if len(got) != len(want) {
				t.Fatalf("trial %d label %q: %d hits, want %d", trial, label, len(got), len(want))
			}
			for i := range want {
				if got[i].Record != want[i].Record || got[i].Occurrences != want[i].Occurrences ||
					!got[i].TIDs.Equal(want[i].TIDs) {
					t.Fatalf("trial %d label %q hit %d: persisted %+v (tids %v), inversion %+v (tids %v)",
						trial, label, i, got[i], got[i].TIDs.Slice(), want[i], want[i].TIDs.Slice())
				}
			}
		}
	}
}

// TestWriterRejectsDanglingEmbeddings: a record whose embeddings
// reference a vertex missing from its transaction cannot be located,
// so WriteLevel refuses it instead of writing a store without its
// location index.
func TestWriterRejectsDanglingEmbeddings(t *testing.T) {
	txn := graph.New("t0")
	txn.AddVertex("A")
	g := graph.New("pat")
	v := g.AddVertex("A")
	g.AddEdge(v, v, "e")
	p := pattern.Pattern{Graph: g, Code: "dangling", Support: 1, TIDs: pattern.NewTIDSet(0),
		Embs: [][]iso.Embedding{{{Verts: []graph.VertexID{99}, Edges: []graph.EdgeID{0}}}}}

	w, err := Create(tmpStore(t), Meta{Name: "dangling"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.WriteTransactions([]*graph.Graph{txn}); err != nil {
		t.Fatal(err)
	}
	err = w.WriteLevel(1, []pattern.Pattern{p})
	if err == nil || !strings.Contains(err.Error(), "missing vertex 99") {
		t.Fatalf("want a missing-vertex error, got %v", err)
	}
}

// TestRejectStoreWithoutLocationIndex: a v4 file whose location-index
// presence byte is 0 (older writers emitted one when some embeddings
// could not be inverted) fails Open and Recover with the re-mine
// error. The file is synthesized from a valid store by replacing the
// index section with the bare 0 byte and resealing the footer.
func TestRejectStoreWithoutLocationIndex(t *testing.T) {
	path := validStorePath(t)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	byLabel, noEmb, _ := r.LocationIndex()
	var sec enc
	encodeLocIndex(&sec, byLabel, noEmb)
	r.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := data[len(data)-trailerSize:]
	idxOff := binary.LittleEndian.Uint64(tr[0:])
	idx := data[idxOff : len(data)-trailerSize]
	if !bytes.HasSuffix(idx, sec.buf) {
		t.Fatal("footer index does not end with the location-index section")
	}
	idx = append(idx[:len(idx)-len(sec.buf):len(idx)-len(sec.buf)], 0)
	out := append(data[:idxOff:idxOff], idx...)
	out = binary.LittleEndian.AppendUint64(out, idxOff)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(idx)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(idx))
	out = append(out, endMagic...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, open := range map[string]func(string) (*Reader, error){"Open": Open, "Recover": Recover} {
		_, err := open(path)
		if !errors.Is(err, errRemine) || !strings.Contains(err.Error(), "location index") ||
			!strings.Contains(err.Error(), "re-mine") {
			t.Fatalf("%s of an indexless store: want a location-index re-mine error, got %v", name, err)
		}
	}
}
