package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Query classes: the serve loadtest mix (point lookups, batches of
// batchCodes codes, support, location and store listings).
const (
	classPoint = iota
	classBatch
	classSupport
	classLocations
	classStores
	numClasses
)

var classNames = [numClasses]string{"point", "batch", "support", "locations", "stores"}

// fullMix is the class schedule of one cycle of ten requests: four
// point, two batch, two support, one location and one store listing.
var fullMix = []int{
	classPoint, classBatch, classPoint, classSupport, classPoint,
	classBatch, classPoint, classLocations, classSupport, classStores,
}

// batchCodes is the code count of one batch query.
const batchCodes = 32

// zipfS and zipfV shape the code draw, P(rank k) ∝ (zipfV+k)^-zipfS:
// a hot head that the serve cache holds, and a tail wide enough that
// a serve-query run touches about 70% of its store's codes, more
// marshaled bodies than the cache holds.
const (
	zipfS = 1.1
	zipfV = 10
)

// query is one request the generator sends.
type query struct {
	class  int
	method string
	path   string
	body   []byte
	code   string // point and support: the code asked for
	nth    int    // how many queries of this class the source drew before
}

// sampled reports whether the generator verifies q's response: every
// every-th point and every every-th support query. Counting per class,
// not per request, keeps a fixed class schedule from aligning with the
// sample and skipping a class.
func sampled(q query, every int) bool {
	return (q.class == classPoint || q.class == classSupport) && q.nth%every == 0
}

// querySource draws queries deterministically from a seed: the class
// from a fixed mix, codes Zipf-skewed over a fixed ranking of the code
// set. Only the generator's scheduling goroutine draws from it;
// setCodes may be called concurrently.
type querySource struct {
	mix   []int
	rng   *rand.Rand
	step  int
	drawn [numClasses]int

	mu     sync.Mutex
	codes  []string
	zipf   *rand.Zipf
	labels []string
}

func newQuerySource(seed int64, mix []int, codes, labels []string) *querySource {
	q := &querySource{mix: mix, rng: rand.New(rand.NewSource(seed)), labels: labels}
	q.setCodes(codes)
	return q
}

// rankSeed orders a code set into popularity ranks. It is fixed, not
// the workload seed: every run queries the same hot head and tail, and
// the seed varies only the sequence of draws, so runs with different
// seeds measure the same cache behaviour.
const rankSeed = 1

// setCodes replaces the code set, ranked by a rankSeed permutation.
func (q *querySource) setCodes(codes []string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	perm := append([]string(nil), codes...)
	rand.New(rand.NewSource(rankSeed)).Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	q.codes = perm
	q.zipf = nil
	if len(perm) > 1 {
		q.zipf = rand.NewZipf(q.rng, zipfS, zipfV, uint64(len(perm)-1))
	}
}

func (q *querySource) drawCode() string {
	if q.zipf == nil {
		return q.codes[0]
	}
	return q.codes[q.zipf.Uint64()]
}

func (q *querySource) next() query {
	q.mu.Lock()
	defer q.mu.Unlock()
	class := q.mix[q.step%len(q.mix)]
	q.step++
	if class == classLocations && len(q.labels) == 0 {
		class = classPoint
	}
	if len(q.codes) == 0 && class != classLocations {
		class = classStores
	}
	var out query
	switch class {
	case classPoint:
		c := q.drawCode()
		out = query{class: class, method: http.MethodGet, path: "/v1/patterns/" + url.PathEscape(c), code: c}
	case classSupport:
		c := q.drawCode()
		out = query{class: class, method: http.MethodGet, path: "/v1/patterns/" + url.PathEscape(c) + "/support", code: c}
	case classBatch:
		picked := make([]string, batchCodes)
		for i := range picked {
			picked[i] = q.drawCode()
		}
		body, _ := json.Marshal(map[string]any{"codes": picked}) // strings always marshal
		out = query{class: class, method: http.MethodPost, path: "/v1/patterns:batch", body: body}
	case classLocations:
		l := q.labels[q.rng.Intn(len(q.labels))]
		out = query{class: class, method: http.MethodGet, path: "/v1/locations/" + url.PathEscape(l) + "/patterns"}
	default:
		out = query{class: classStores, method: http.MethodGet, path: "/v1/stores"}
	}
	out.nth = q.drawn[out.class]
	q.drawn[out.class]++
	return out
}

// loadResult is one phase of reads. Latencies are in milliseconds
// from each request's send.
type loadResult struct {
	sent     int
	failed   int
	byClass  [numClasses][]float64
	all      []float64       // every successful request, in send order after a phase
	at       []time.Duration // when each entry of all was sent, from the phase start
	bytes    int64
	checked  int
	mismatch []string
}

func (r *loadResult) merge(o loadResult) {
	r.sent += o.sent
	r.failed += o.failed
	for c := range r.byClass {
		r.byClass[c] = append(r.byClass[c], o.byClass[c]...)
	}
	r.all = append(r.all, o.all...)
	r.at = append(r.at, o.at...)
	r.bytes += o.bytes
	r.checked += o.checked
	r.mismatch = append(r.mismatch, o.mismatch...)
}

// loadGen sends the query mix from closed-loop clients (closed) over
// at most one connection per core.
type loadGen struct {
	client *http.Client
	base   string
	tr     *tracer
	// check, when set, verifies the sampled point and support
	// response bodies (see sampled) against the store.
	check      func(q query, body []byte) error
	checkEvery int
}

func newLoadGen(base string, tr *tracer) *loadGen {
	tp := &http.Transport{
		MaxConnsPerHost:     nproc(),
		MaxIdleConnsPerHost: nproc(),
		DisableCompression:  true,
	}
	return &loadGen{
		client: &http.Client{Transport: tp, Timeout: 30 * time.Second},
		base:   base,
		tr:     tr,
	}
}

func (g *loadGen) close() { g.client.CloseIdleConnections() }

type job struct {
	sent time.Time
	at   time.Duration // sent, from the phase start
	q    query
}

// closed runs a closed loop for dur, or until ctx is done: clients
// connections, each sending its next request as soon as the previous
// one returns, as callers that wait for their answer do. Latency is
// timed from the send. A closed loop keeps the process busy, so it
// measures service time; a paced or open loop left it idle between
// requests, and its latency read how fast the shared host woke the
// process: on a 2-vCPU VM an open loop's median was 0.95 ms where a
// closed loop's is 0.11 ms, and a reader paced at 125, 250 and 500 rps
// read a median of 0.24, 0.21 and 0.16 ms against 0.08 ms unpaced.
func (g *loadGen) closed(ctx context.Context, src *querySource, clients int, dur time.Duration) loadResult {
	parts := make([]loadResult, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(res *loadResult) {
			defer wg.Done()
			// One body buffer per client keeps the generator's garbage,
			// which the server's collector also pays for, small.
			var buf bytes.Buffer
			for ctx.Err() == nil {
				at := time.Since(start)
				if at >= dur {
					return
				}
				g.send(context.WithoutCancel(ctx), job{sent: start.Add(at), at: at, q: src.next()}, res, &buf)
			}
		}(&parts[c])
	}
	wg.Wait()
	var out loadResult
	for _, p := range parts {
		out.merge(p)
	}
	sortByTime(&out)
	return out
}

// sortByTime puts r.all in send order, so windows of it are windows
// of time.
func sortByTime(r *loadResult) {
	idx := make([]int, len(r.all))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return r.at[idx[a]] < r.at[idx[b]] })
	all, at := make([]float64, len(idx)), make([]time.Duration, len(idx))
	for i, k := range idx {
		all[i], at[i] = r.all[k], r.at[k]
	}
	r.all, r.at = all, at
}

func (g *loadGen) send(ctx context.Context, j job, res *loadResult, buf *bytes.Buffer) {
	res.sent++
	h := g.tr.start(handle{}, "serve."+classNames[j.q.class])
	defer h.end()
	var body io.Reader
	if j.q.body != nil {
		body = bytes.NewReader(j.q.body)
	}
	req, err := http.NewRequestWithContext(ctx, j.q.method, g.base+j.q.path, body)
	if err != nil {
		res.failed++
		return
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.client.Do(req)
	if err != nil {
		res.failed++
		return
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	data := buf.Bytes()
	lat := ms(time.Since(j.sent))
	if err != nil || resp.StatusCode != http.StatusOK {
		res.failed++
		return
	}
	res.byClass[j.q.class] = append(res.byClass[j.q.class], lat)
	res.all = append(res.all, lat)
	res.at = append(res.at, j.at)
	res.bytes += int64(len(data))
	if g.check != nil && sampled(j.q, g.checkEvery) {
		res.checked++
		if err := g.check(j.q, data); err != nil {
			res.failed++
			res.mismatch = append(res.mismatch, err.Error())
		}
	}
}

// getJSON fetches one JSON document; a non-200 is an error.
func getJSON(ctx context.Context, client *http.Client, u string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", u, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// capacityShare is the part of a run the capacity measurement gets;
// the workload's own phase gets the rest.
const capacityShare = 0.4

// rateWindow is the window requests per second are counted over.
const rateWindow = 500 * time.Millisecond

// capacity measures the highest request rate the server sustains: one
// closed-loop client per core, each sending its next request as soon
// as the previous one returns, for capacityShare of the run, from a
// collected heap. The rate is the median over rateWindow windows of
// requests answered per second, so a stall of the shared machine moves
// a window, not the result; a closed loop cannot build a backlog.
// Every request counts as attempted, a failed one also as failed.
func (g *loadGen) capacity(ctx context.Context, cfg config, src *querySource, t *tally) float64 {
	runtime.GC()
	dur := time.Duration(float64(cfg.seconds) * capacityShare)
	r := g.closed(ctx, src, nproc(), dur)
	t.attempted += r.sent
	t.failed += r.failed
	for _, m := range r.mismatch {
		t.check(false, "capacity: %s", m)
	}
	t.check(r.failed == 0, "capacity: %d failed requests", r.failed)
	rate := windowRate(r.at, dur, rateWindow)
	cfg.logf("capacity: %.0f rps (%d requests, p99 %.2f ms)", rate, r.sent, windowedP99(r.all))
	return rate
}

// windowRate is the median, over the whole windows of w in dur, of the
// requests per second sent in each. at holds the send times.
func windowRate(at []time.Duration, dur, w time.Duration) float64 {
	k := int(dur / w)
	if k < 1 {
		return ratio(float64(len(at)), dur.Seconds())
	}
	counts := make([]float64, k)
	for _, a := range at {
		if i := int(a / w); i < k {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= w.Seconds()
	}
	return median(counts)
}

// logTail logs where a phase's latency sits: each class's p50 and p99,
// and the p99 of each window.
func logTail(cfg config, r loadResult) {
	var b strings.Builder
	for c := range r.byClass {
		fmt.Fprintf(&b, " %s=%.3f/%.2f", classNames[c], percentile(r.byClass[c], 50), percentile(r.byClass[c], 99))
	}
	fmt.Fprintf(&b, " | all p50 %.3f p90 %.3f", percentile(r.all, 50), percentile(r.all, 90))
	fmt.Fprintf(&b, " | windows")
	k := len(r.all) / p99Window
	for w := 0; w < k; w++ {
		fmt.Fprintf(&b, " %.2f", percentile(r.all[w*len(r.all)/k:(w+1)*len(r.all)/k], 99))
	}
	cfg.logf("p50/p99 by class:%s", b.String())
}
