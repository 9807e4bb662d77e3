package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Trace groups the
// spans of one request (a mine, a batch, a query); Parent is 0 for a
// root. Name is "<layer>.<call>", and the layer is what self time is
// reported by.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Trace  int           `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay one branch per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// handle is an open span; the zero handle (from a nil tracer) ends as
// a no-op.
type handle struct {
	t     *tracer
	id    int
	trace int
}

// start opens a span under parent (the zero handle for a root).
func (t *tracer) start(parent handle, name string) handle {
	if t == nil {
		return handle{}
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	trace := parent.trace
	if parent.id == 0 {
		trace = id
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent.id, Trace: trace, Name: name, Start: now, End: -1})
	return handle{t: t, id: id, trace: trace}
}

func (h handle) end() {
	if h.t == nil {
		return
	}
	now := time.Since(h.t.t0)
	h.t.mu.Lock()
	h.t.spans[h.id-1].End = now
	h.t.mu.Unlock()
}

// child records a finished span under parent from absolute times —
// how progress events the program emits after the fact become spans.
func (t *tracer) child(parent handle, name string, start, end time.Time) {
	if t == nil || parent.id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent.id, Trace: parent.trace, Name: name,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)})
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each layer's self time: the summed duration of its
// spans minus, per span, the part of its interval that its children
// cover. Children overlapping one another (concurrent repetitions)
// count once; the part of a child outside its parent counts for
// nothing. Unfinished spans are ignored.
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		out[s.layer()] += s.End - s.Start - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}
