package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "bench.mine", Start: ms(0), End: ms(100)},
		// Overlapping children count once; the part of a child past
		// its parent's end is not subtracted from the parent.
		{ID: 2, Parent: 1, Name: "core.MineStructural", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "core.MineStructural", Start: ms(20), End: ms(50)},
		{ID: 4, Parent: 1, Name: "store.Open", Start: ms(90), End: ms(120)},
		// A grandchild is subtracted from its own parent only.
		{ID: 5, Parent: 3, Name: "fsg.level1", Start: ms(25), End: ms(45)},
		// Unfinished spans are ignored.
		{ID: 6, Parent: 1, Name: "serve.stores", Start: ms(60), End: -1},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"bench": ms(100 - 40 - 10),
		"core":  ms(20 + 30 - 20),
		"fsg":   ms(20),
		"store": ms(30),
	}
	if len(got) != len(want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("self time of %s = %v, want %v", l, got[l], w)
		}
	}
}

func TestTracerSpans(t *testing.T) {
	tr := newTracer()
	root := tr.start(handle{}, "bench.batch")
	child := tr.start(root, "ingest.Tick")
	child.end()
	root.end()
	other := tr.start(handle{}, "serve.point")
	other.end()
	s := tr.snapshot()
	if len(s) != 3 {
		t.Fatalf("%d spans, want 3", len(s))
	}
	if s[1].Parent != s[0].ID || s[1].Trace != s[0].Trace || s[2].Trace == s[0].Trace {
		t.Errorf("parent/trace ids wrong: %+v", s)
	}
	for _, sp := range s {
		if sp.End < sp.Start {
			t.Errorf("span %s ends before it starts", sp.Name)
		}
	}
	var off *tracer
	off.start(handle{}, "bench.x").end() // a nil tracer records nothing
	if off.snapshot() != nil {
		t.Error("a nil tracer recorded spans")
	}
}
