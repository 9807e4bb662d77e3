package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"tnkd/internal/obs"
	"tnkd/internal/serve"
	"tnkd/internal/store"
)

// denseServe is serve-query's set-up: the dense temporal store, served.
type denseServe struct {
	*temporalInputs
	rd           *store.Reader
	srv          *served
	openMs       float64
	freshMs      float64 // mine start to the first answer from the store
	firstQueryMs float64 // mount to the first answer
	reg          *obs.Registry
}

func denseSetup(ctx context.Context, cfg config, path string) (*denseServe, error) {
	in, err := mineTemporal(cfg, path, cfg.size.denseSupport, cfg.size.denseMaxEdges)
	if err != nil {
		return nil, err
	}
	ds := &denseServe{temporalInputs: in, reg: obs.NewRegistry()}
	t := time.Now()
	ds.rd, err = store.Open(path)
	if err != nil {
		return nil, err
	}
	ds.openMs = ms(time.Since(t))
	ds.srv, err = startServe([]serve.Mount{{Name: "dense", Reader: ds.rd}}, serve.Options{
		Metrics:           ds.reg,
		PatternCacheBytes: cfg.size.denseCacheBytes,
	})
	if err != nil {
		ds.rd.Close()
		return nil, err
	}
	mounted := time.Now()
	views, err := storesView(ctx, http.DefaultClient, ds.srv.base)
	if err != nil {
		ds.srv.stop()
		return nil, err
	}
	ds.firstQueryMs = ms(time.Since(mounted))
	ds.freshMs = in.mineS*1000 + ms(time.Since(t))
	if len(views) != 1 || views[0].Patterns != ds.rd.NumPatterns() {
		ds.srv.stop()
		return nil, fmt.Errorf("/v1/stores does not list the dense store's %d patterns", ds.rd.NumPatterns())
	}
	return ds, nil
}

// servePhase is one closed-loop phase of serve-query with the
// server's registry and the runtime around it.
type servePhase struct {
	load          loadResult
	before, after []obs.Series
	mem           memDelta
	tasks         int64
}

// runServeQuery is the serve-query workload: the query mix from one
// closed-loop client over a store whose marshaled bodies exceed
// serve's pattern cache, then its capacity.
func runServeQuery(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	var ds *denseServe
	var setup, mineS, freshMs []float64
	for i, start := 0, time.Now(); moreSetups(cfg, i, start); i++ {
		if ds != nil {
			if err := ds.srv.stop(); err != nil {
				return nil, err
			}
			ds = nil
		}
		runtime.GC()
		t := time.Now()
		var err error
		ds, err = denseSetup(ctx, cfg, filepath.Join(cfg.dir, fmt.Sprintf("dense-%d.tnd", i)))
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t).Seconds())
		mineS = append(mineS, ds.mineS)
		freshMs = append(freshMs, ds.freshMs)
	}
	defer ds.srv.stop()
	rep.e2e["setup_s"] = median(setup)
	resetPeakRSS()

	gen := newLoadGen(ds.srv.base, nil)
	defer gen.close()
	gen.check = func(q query, body []byte) error { return checkResponse(ds.rd, q, body) }
	gen.checkEvery = cfg.size.checkEvery
	src := newQuerySource(cfg.seed, fullMix, storeCodes(ds.rd), storeLabels(ds.rd))
	reads := time.Duration(float64(cfg.seconds) * (1 - capacityShare))
	phase := func(dur time.Duration) (*servePhase, error) {
		ph := &servePhase{before: ds.reg.Snapshot()}
		seen0, err := scrapeRequests(ctx, gen.client, ds.srv.base)
		if err != nil {
			return nil, err
		}
		mem := readMem()
		tasks := engineTasks()
		ph.load = gen.closed(ctx, src, 1, dur)
		ph.mem = memSince(mem)
		ph.tasks = engineTasks() - tasks
		ph.after = ds.reg.Snapshot()
		seen1, err := scrapeRequests(ctx, gen.client, ds.srv.base)
		if err != nil {
			return nil, err
		}
		r := ph.load
		rep.attempted += r.sent
		rep.failed += r.failed
		for _, m := range r.mismatch {
			rep.check(false, "serve-query: %s", m)
		}
		rep.check(r.checked > 0 || !cfg.size.enforceTail, "serve-query: no response was checked against the store")
		rep.check(seen1-seen0 == int64(r.sent), "server counted %d requests, client sent %d", seen1-seen0, r.sent)
		return ph, nil
	}

	if !cfg.trace {
		ph, err := phase(reads)
		if err != nil {
			return nil, err
		}
		rate := gen.capacity(ctx, cfg, src, &rep.tally)
		r := ph.load
		logTail(cfg, r)
		cfg.logf("pattern cache: %d hits, %d misses, %d evictions",
			counterDelta(ph.before, ph.after, "tnd_serve_cache_hits_total"),
			counterDelta(ph.before, ph.after, "tnd_serve_cache_misses_total"),
			counterDelta(ph.before, ph.after, "tnd_serve_cache_evictions_total"))
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rep.e2e["peak_rss_mb"] = rss
		rep.e2e["mine_s"] = median(mineS)
		rep.e2e["freshness_p50_ms"] = median(freshMs)
		reportQueries(cfg, rep, "serve-query", r.all)
		rep.e2e["max_rate_rps"] = rate
		return rep, nil
	}

	plain, err := phase(reads / 2)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	gen.tr = tr
	ph, err := phase(reads / 2)
	if err != nil {
		return nil, err
	}
	r := ph.load
	queries := r.sent
	l := rep.layer
	l["core.mine_temporal_s"] = ds.mineS
	ds.levels.report(l, 1)
	reportRuntime(l, ph.mem, queries)
	l["engine.tasks"] = float64(ph.tasks) / float64(queries)
	l["serve.first_query_ms"] = ds.firstQueryMs
	if fi, err := os.Stat(ds.storePath); err == nil {
		l["store.bytes"] = float64(fi.Size())
	}
	l["store.open_ms"] = ds.openMs
	l["store.pattern_decode_us"] = patternDecodeUs(ds.rd)
	reportLoad(l, r)
	reportServer(l, ph.before, ph.after)
	l["failed_ratio"] = ratio(float64(rep.failed), float64(rep.attempted))
	l["trace.overhead_ratio"] = ratio(percentile(r.all, 50), percentile(plain.load.all, 50))
	if err := reportSelfTimes(cfg, l, tr, queries); err != nil {
		return nil, err
	}
	return rep, nil
}

// scrapeRequests reads the server's /metrics and sums
// tnd_http_requests_total over every route except /metrics itself.
func scrapeRequests(ctx context.Context, client *http.Client, base string) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	var total int64
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "tnd_http_requests_total{") || strings.Contains(line, `"GET /metrics"`) {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return 0, fmt.Errorf("parse %q: %w", line, err)
		}
		total += int64(v)
	}
	return total, sc.Err()
}
