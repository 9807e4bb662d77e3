package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tnkd/internal/core"
	"tnkd/internal/dataset"
	"tnkd/internal/fsg"
	"tnkd/internal/graph"
	"tnkd/internal/obs"
	"tnkd/internal/partition"
	"tnkd/internal/serve"
	"tnkd/internal/store"
)

// structuralReadShare is the part of a mine-structural run spent
// reading the last mined store from one closed-loop client, before its
// capacity is measured.
const structuralReadShare = 0.25

// runStructural is the mine-structural workload: Algorithm 1 over the
// uniform-label transit-hours graph, each mined store mounted, queried
// once and reopened and decoded in full; then steady reads of the last
// store and its capacity.
func runStructural(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	var g *graph.Graph
	var setup []float64
	for i, start := 0, time.Now(); moreSetups(cfg, i, start); i++ {
		g = nil // let the collection below free the previous set-up
		runtime.GC()
		t := time.Now()
		d := dataset.Generate(genConfig(cfg))
		g = d.BuildGraph(dataset.GraphOptions{Attr: dataset.TransitHours, Vertices: dataset.UniformLabels})
		setup = append(setup, time.Since(t).Seconds())
	}
	rep.e2e["setup_s"] = median(setup)
	resetPeakRSS()

	if !cfg.trace {
		ph, err := structuralPhase(ctx, cfg, g, nil, cfg.seconds, true)
		if err != nil {
			return nil, err
		}
		rep.add(ph.tally)
		logTail(cfg, ph.load)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rep.e2e["peak_rss_mb"] = rss
		rep.e2e["mine_s"] = median(ph.mineS)
		rep.e2e["freshness_p50_ms"] = percentile(ph.freshMs, 50)
		reportQueries(cfg, rep, "mine-structural queries", ph.load.all)
		rep.e2e["max_rate_rps"] = ph.maxRate
		return rep, nil
	}

	// Traced run: the same phase untraced and then traced, half the
	// budget each, plus one serial mine for the engine speedup.
	plain, err := structuralPhase(ctx, cfg, g, nil, cfg.seconds/2, false)
	if err != nil {
		return nil, err
	}
	rep.add(plain.tally)
	tr := newTracer()
	ph, err := structuralPhase(ctx, cfg, g, tr, cfg.seconds/2, true)
	if err != nil {
		return nil, err
	}
	rep.add(ph.tally)
	serialPath := filepath.Join(cfg.dir, "structural-serial.tnd")
	t := time.Now()
	if _, err := core.MineStructural(g, structuralOptions(cfg, 1, serialPath, nil)); err != nil {
		return nil, fmt.Errorf("serial mine: %w", err)
	}
	serialS := time.Since(t).Seconds()
	digest, err := storeDigest(serialPath)
	if err != nil {
		return nil, err
	}
	rep.check(digest == ph.digest, "serial and parallel mines differ: %s vs %s", digest, ph.digest)

	l := rep.layer
	mines := len(ph.mineS)
	l["core.mine_structural_s"] = median(ph.mineS)
	ph.levels.report(l, mines)
	l["engine.tasks"] = float64(ph.engineTasks) / float64(mines)
	l["engine.speedup"] = ratio(serialS, median(ph.mineS))
	reportRuntime(l, ph.mem, mines)
	l["store.bytes"] = float64(ph.storeBytes)
	l["store.open_ms"] = median(ph.openMs)
	l["store.rehydrate_ms"] = median(ph.rehydrateMs)
	l["store.pattern_decode_us"] = median(ph.decodeUs)
	l["freshness_p90_ms"] = percentile(ph.freshMs, 90)
	l["serve.first_query_ms"] = median(ph.firstQueryMs)
	reportLoad(l, ph.load)
	reportServer(l, ph.regBefore, ph.regAfter)
	l["failed_ratio"] = ratio(float64(rep.failed), float64(rep.attempted))
	l["trace.overhead_ratio"] = ratio(median(ph.mineS), median(plain.mineS))
	if err := reportSelfTimes(cfg, l, tr, mines); err != nil {
		return nil, err
	}
	return rep, nil
}

func structuralOptions(cfg config, parallelism int, path string, progress func(int, fsg.LevelProgress)) core.StructuralOptions {
	return core.StructuralOptions{
		Strategy:    partition.BreadthFirst,
		Partitions:  cfg.size.partitions,
		Repetitions: cfg.size.repetitions,
		Support:     cfg.size.structSupport,
		MaxEdges:    cfg.size.structMaxEdges,
		MaxSteps:    200000,
		Seed:        cfg.size.partitionSeed,
		Parallelism: parallelism,
		StorePath:   path,
		Progress:    progress,
	}
}

// structuralResult is one phase of mine-structural.
type structuralResult struct {
	mineS, freshMs, firstQueryMs  []float64
	openMs, rehydrateMs, decodeUs []float64
	load                          loadResult
	maxRate                       float64
	digest                        string
	storeBytes                    int64
	engineTasks                   int64
	mem                           memDelta
	levels                        *levelStats
	regBefore, regAfter           []obs.Series
	tally
}

// structuralPhase mines repeatedly until its share of budget is spent
// (at least twice), then, with serveLast, reads the last mined store
// from one closed-loop client and measures serving capacity over it.
func structuralPhase(ctx context.Context, cfg config, g *graph.Graph, tr *tracer, budget time.Duration, serveLast bool) (*structuralResult, error) {
	res := &structuralResult{levels: newLevelStats()}
	reg := obs.NewRegistry()
	res.regBefore = reg.Snapshot()
	mineBudget := budget
	if serveLast {
		mineBudget = time.Duration(float64(budget) * (1 - capacityShare - structuralReadShare))
	}
	start := time.Now()
	var last string
	for i := 0; i < 2 || time.Since(start) < mineBudget; i++ {
		path := filepath.Join(cfg.dir, fmt.Sprintf("structural-%d.tnd", i))
		if err := structuralIteration(ctx, cfg, g, tr, reg, path, i, res); err != nil {
			return nil, err
		}
		if last != "" {
			os.Remove(last)
		}
		last = path
	}
	cfg.logf("%d mines in %.1fs", len(res.mineS), time.Since(start).Seconds())
	if !serveLast {
		res.regAfter = reg.Snapshot()
		return res, nil
	}
	rd, err := store.Open(last)
	if err != nil {
		return nil, err
	}
	srv, err := startServe([]serve.Mount{{Name: "structural", Reader: rd}}, serve.Options{Metrics: reg})
	if err != nil {
		rd.Close()
		return nil, err
	}
	defer srv.stop()
	gen := newLoadGen(srv.base, tr)
	defer gen.close()
	gen.check = func(q query, body []byte) error { return checkResponse(rd, q, body) }
	gen.checkEvery = cfg.size.checkEvery
	src := newQuerySource(cfg.seed, fullMix, storeCodes(rd), nil)
	// The miner's garbage is collected before the reads: a server runs
	// in its own process, which a mine's collection never pauses.
	runtime.GC()
	res.load = gen.closed(ctx, src, 1, time.Duration(float64(budget)*structuralReadShare))
	res.attempted += res.load.sent
	res.failed += res.load.failed
	for _, m := range res.load.mismatch {
		res.check(false, "mine-structural: %s", m)
	}
	res.regAfter = reg.Snapshot()
	gen.tr = nil
	res.maxRate = gen.capacity(ctx, cfg, src, &res.tally)
	return res, nil
}

// structuralIteration is one mine → store → serve → read-back pass.
func structuralIteration(ctx context.Context, cfg config, g *graph.Graph, tr *tracer, reg *obs.Registry, path string, i int, res *structuralResult) error {
	root := tr.start(handle{}, "bench.mine")
	defer root.end()
	res.attempted++

	tasks := engineTasks()
	mem := readMem()
	mineSpan := tr.start(root, "core.MineStructural")
	progress := func(_ int, ev fsg.LevelProgress) { levelProgress(tr, mineSpan, res.levels, ev) }
	t0 := time.Now()
	mined, err := core.MineStructural(g, structuralOptions(cfg, nproc(), path, progress))
	mineDur := time.Since(t0)
	mineSpan.end()
	if err != nil {
		return fmt.Errorf("mine: %w", err)
	}
	d := memSince(mem)
	res.mem.allocs += d.allocs
	res.mem.bytes += d.bytes
	res.mem.gcCount += d.gcCount
	res.engineTasks += engineTasks() - tasks
	for _, r := range mined.PerRun {
		res.levels.result(r)
	}
	res.mineS = append(res.mineS, mineDur.Seconds())

	// Serve the new store and time the first answer from it.
	span := tr.start(root, "store.Open")
	rd, err := store.Open(path)
	span.end()
	if err != nil {
		return err
	}
	srv, err := startServe([]serve.Mount{{Name: "structural", Reader: rd}}, serve.Options{Metrics: reg})
	if err != nil {
		rd.Close()
		return err
	}
	defer srv.stop()
	client := &http.Client{Timeout: 30 * time.Second}
	mounted := time.Now()
	span = tr.start(root, "serve.stores")
	views, err := storesView(ctx, client, srv.base)
	span.end()
	if err != nil {
		return err
	}
	answered := time.Now()
	res.freshMs = append(res.freshMs, ms(answered.Sub(t0)))
	res.firstQueryMs = append(res.firstQueryMs, ms(answered.Sub(mounted)))
	ok := len(views) == 1 && views[0].Patterns == rd.NumPatterns() && rd.NumPatterns() > 0
	res.check(ok, "mine %d: /v1/stores does not list the mined store's %d patterns", i, rd.NumPatterns())

	// Reopen the store and decode it in full.
	t := time.Now()
	span = tr.start(root, "store.Open")
	rd2, err := store.Open(path)
	span.end()
	if err != nil {
		return err
	}
	defer rd2.Close()
	res.openMs = append(res.openMs, ms(time.Since(t)))
	t = time.Now()
	span = tr.start(root, "store.Rehydrate")
	_, terr := rd2.Transactions()
	_, lerr := rd2.AllLevelPatterns()
	span.end()
	if terr != nil || lerr != nil {
		return fmt.Errorf("decode %s: %v %v", path, terr, lerr)
	}
	res.rehydrateMs = append(res.rehydrateMs, ms(time.Since(t)))
	res.decodeUs = append(res.decodeUs, patternDecodeUs(rd2))
	span = tr.start(root, "store.Dump")
	digest, err := dumpDigest(rd2)
	span.end()
	if err != nil {
		return err
	}
	if res.digest == "" {
		res.digest = digest
	} else {
		res.check(digest == res.digest, "mine %d: store digest %s differs from the first mine's %s", i, digest, res.digest)
	}
	if fi, err := os.Stat(path); err == nil {
		res.storeBytes = fi.Size()
	}
	return nil
}

// patternDecodeUs times Reader.Pattern over an even sample of up to
// 256 records and returns the median per record in microseconds.
func patternDecodeUs(rd *store.Reader) float64 {
	n := rd.NumPatterns()
	step := max(1, n/256)
	var us []float64
	for i := 0; i < n; i += step {
		t := time.Now()
		if _, err := rd.Pattern(i); err != nil {
			return 0
		}
		us = append(us, float64(time.Since(t).Nanoseconds())/1000)
	}
	return median(us)
}

func dumpDigest(rd *store.Reader) (string, error) {
	dump, err := store.DumpPatterns(rd)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(dump))
	return hex.EncodeToString(sum[:8]), nil
}

func storeDigest(path string) (string, error) {
	rd, err := store.Open(path)
	if err != nil {
		return "", err
	}
	defer rd.Close()
	return dumpDigest(rd)
}
