package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"tnkd/internal/core"
	"tnkd/internal/dataset"
	"tnkd/internal/faultfs"
	"tnkd/internal/fsg"
	"tnkd/internal/graph"
	"tnkd/internal/ingest"
	"tnkd/internal/obs"
	"tnkd/internal/partition"
	"tnkd/internal/serve"
	"tnkd/internal/store"
)

// backgroundMix is the reader stream beside the ingest loop: batch
// lookups and store listings, which answer 200 for any code, so a
// code the window just retired is not a failed request.
var backgroundMix = []int{classBatch, classStores, classStores, classStores}

// temporalInputs are the generated temporal inputs: the per-day
// partition, and the store mined from its first days.
type temporalInputs struct {
	part      *partition.TemporalResult
	storePath string
	mineS     float64 // core.MineTemporal wall time, graph to closed store
	levels    *levelStats
}

// mineTemporal generates the dataset, partitions it by day and mines
// the first cfg.size.seedDays days into path at an absolute support of
// support transactions. It is set-up, so it records no spans: a traced
// run's self times cover only the measured phase.
func mineTemporal(cfg config, path string, support, maxEdges int) (*temporalInputs, error) {
	in := &temporalInputs{storePath: path, levels: newLevelStats()}
	data := dataset.Generate(genConfig(cfg))
	opts := core.DefaultTemporalMineOptions()
	opts.Parallelism = nproc()
	in.part = partition.Temporal(data, opts.Partition)
	_, n := in.part.WindowRange(1, cfg.size.seedDays)
	if n == 0 {
		return nil, fmt.Errorf("the first %d days hold no transactions", cfg.size.seedDays)
	}
	opts.Partition.MaxDays = cfg.size.seedDays
	opts.SupportFraction = float64(support) / float64(n)
	opts.MaxEdges = maxEdges
	opts.StorePath = path
	opts.Progress = in.levels.progress
	t := time.Now()
	res, err := core.MineTemporal(data, opts)
	in.mineS = time.Since(t).Seconds()
	if err != nil {
		return nil, fmt.Errorf("temporal mine: %w", err)
	}
	in.levels.result(res.Mining)
	if res.Support != support {
		return nil, fmt.Errorf("temporal mine used support %d, want %d", res.Support, support)
	}
	return in, nil
}

// ingestInputs adds the arrival stream: one encoded batch per later
// non-empty day.
type ingestInputs struct {
	*temporalInputs
	seedTxns []*graph.Graph
	batches  [][]byte
	txns     [][]*graph.Graph
}

func ingestSetup(cfg config, path string) (*ingestInputs, error) {
	t, err := mineTemporal(cfg, path, cfg.size.ingestSupport, cfg.size.ingestMaxEdges)
	if err != nil {
		return nil, err
	}
	in := &ingestInputs{temporalInputs: t}
	_, hi := t.part.WindowRange(1, cfg.size.seedDays)
	in.seedTxns = t.part.Transactions[:hi]
	for day := cfg.size.seedDays + 1; day <= len(t.part.DayStarts) && len(in.batches) < cfg.size.maxBatches; day++ {
		lo, hi := t.part.WindowRange(day, day)
		if hi == lo {
			continue
		}
		txns := t.part.Transactions[lo:hi]
		body, err := ingest.EncodeBatch(fmt.Sprintf("day-%03d.json", day), txns)
		if err != nil {
			return nil, err
		}
		in.batches = append(in.batches, body)
		in.txns = append(in.txns, txns)
	}
	if len(in.batches) == 0 {
		return nil, fmt.Errorf("no non-empty day after day %d", cfg.size.seedDays)
	}
	return in, nil
}

// runIngestWindow is the ingest-window workload: per-day batches
// POSTed to an in-process ingest daemon sliding a window over them,
// each published generation remounted into serve, with a reader
// stream alongside.
func runIngestWindow(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	var in *ingestInputs
	var setup, mineS []float64
	for i, start := 0, time.Now(); moreSetups(cfg, i, start); i++ {
		in = nil // let the collection below free the previous set-up
		runtime.GC()
		t := time.Now()
		var err error
		in, err = ingestSetup(cfg, filepath.Join(cfg.dir, fmt.Sprintf("seed-%d.tnd", i)))
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t).Seconds())
		mineS = append(mineS, in.mineS)
	}
	rep.e2e["setup_s"] = median(setup)
	resetPeakRSS()

	if !cfg.trace {
		ph, err := ingestPhase(ctx, cfg, in, nil, cfg.seconds, true)
		if err != nil {
			return nil, err
		}
		rep.add(ph.tally)
		logTail(cfg, ph.reads)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rep.e2e["peak_rss_mb"] = rss
		rep.e2e["mine_s"] = median(mineS)
		rep.e2e["freshness_p50_ms"] = percentile(ph.freshMs, 50)
		reportQueries(cfg, rep, "ingest-window reads", ph.reads.all)
		rep.e2e["max_rate_rps"] = ph.maxRate
		return rep, nil
	}

	plain, err := ingestPhase(ctx, cfg, in, nil, cfg.seconds/2, false)
	if err != nil {
		return nil, err
	}
	rep.add(plain.tally)
	tr := newTracer()
	ph, err := ingestPhase(ctx, cfg, in, tr, cfg.seconds/2, false)
	if err != nil {
		return nil, err
	}
	rep.add(ph.tally)

	l := rep.layer
	batches := len(ph.freshMs)
	l["core.mine_temporal_s"] = in.mineS
	ph.reference.report(l, 1)
	l["fsg.window_patterns"] = median(ph.windowPatterns)
	l["fsg.retired_txns"] = float64(ph.retired) / float64(batches)
	l["engine.tasks"] = float64(ph.engineTasks) / float64(batches)
	reportRuntime(l, ph.mem, batches)
	l["store.bytes"] = float64(ph.storeBytes)
	l["store.open_ms"] = median(ph.openMs)
	l["store.rehydrate_ms"] = median(ph.rehydrateMs)
	l["store.pattern_decode_us"] = ph.decodeUs
	var batchBytes int64
	for _, b := range in.batches[:batches] {
		batchBytes += int64(len(b))
	}
	fc := ph.fs
	l["faultfs.write_bytes_per_batch"] = float64(fc.writeBytes) / float64(batches)
	l["faultfs.write_amplification"] = ratio(float64(fc.writeBytes), float64(batchBytes))
	l["faultfs.write_ms"] = ms(fc.writeTime) / float64(batches)
	l["faultfs.sync_ms"] = ms(fc.syncTime) / float64(batches)
	l["faultfs.syncs_per_batch"] = float64(fc.syncs) / float64(batches)
	l["faultfs.renames_per_batch"] = float64(fc.renames) / float64(batches)
	l["ingest.tick_ms"] = median(ph.tickMs)
	fold := histDelta(nil, ph.regAfter, "tnd_ingest_fold_seconds")
	l["ingest.fold_ms"] = ratio(fold.Sum, float64(fold.Count)) * 1000
	l["ingest.retries"] = float64(ph.status.Retries)
	l["ingest.fold_failures"] = float64(ph.status.FoldFailures)
	l["ingest.quarantines"] = float64(ph.status.Quarantines)
	l["serve.remount_ms"] = median(ph.remountMs)
	l["serve.first_query_ms"] = median(ph.firstQueryMs)
	reportLoad(l, ph.reads)
	reportServer(l, ph.regBefore, ph.regAfter)
	l["freshness_p90_ms"] = percentile(ph.freshMs, 90)
	l["ingest_batches_per_s"] = float64(batches) / ph.streamS
	l["failed_ratio"] = ratio(float64(rep.failed), float64(rep.attempted))
	k := min(len(plain.freshMs), len(ph.freshMs))
	l["trace.overhead_ratio"] = ratio(sum(ph.freshMs[:k]), sum(plain.freshMs[:k]))
	if err := reportSelfTimes(cfg, l, tr, batches); err != nil {
		return nil, err
	}
	return rep, nil
}

// ingestResult is one streamed phase of ingest-window.
type ingestResult struct {
	freshMs, tickMs, remountMs, firstQueryMs []float64
	openMs, rehydrateMs, windowPatterns      []float64
	decodeUs                                 float64
	retired                                  int
	streamS                                  float64
	reads                                    loadResult
	maxRate                                  float64
	storeBytes                               int64
	engineTasks                              int64
	mem                                      memDelta
	fs                                       fsCounts
	status                                   ingest.Status
	reference                                *levelStats
	regBefore, regAfter                      []obs.Series
	tally
}

// ingestPhase streams the batches through a fresh daemon until they
// run out or the stream's share of budget is spent, checks the final
// generation, and, with measureCapacity, measures serving capacity
// over it.
func ingestPhase(ctx context.Context, cfg config, in *ingestInputs, tr *tracer, budget time.Duration, measureCapacity bool) (*ingestResult, error) {
	res := &ingestResult{reference: newLevelStats()}
	dir, err := os.MkdirTemp(cfg.dir, "ingest-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	reg := obs.NewRegistry()
	meter := newMeterFS(faultfs.OS{})

	// The daemon remounts serve in-process. Set before the first Tick.
	var srv *served
	var mounted string
	var remounted time.Time
	var batchSpan handle
	remount := func(path string) error {
		if path == mounted {
			return ingest.ErrRemountStale
		}
		span := tr.start(batchSpan, "serve.RemountAuto")
		t := time.Now()
		_, err := srv.srv.RemountAuto(path)
		remounted = time.Now()
		span.end()
		if err != nil {
			return err
		}
		res.remountMs = append(res.remountMs, ms(remounted.Sub(t)))
		mounted = path
		return nil
	}
	d, err := ingest.New(ingest.Options{
		Dir:        dir,
		Seed:       in.storePath,
		FS:         meter,
		MinSupport: cfg.size.ingestSupport,
		MaxEdges:   cfg.size.ingestMaxEdges,
		Window:     cfg.size.window,
		// One fold worker leaves the other core to the reads beside
		// it; with every core folding, read latency tracked how busy
		// the host was more than anything the daemon did.
		Parallelism: 1,
		Metrics:     reg,
		JitterSeed:  cfg.seed,
		Remount:     remount,
	})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	mounted = d.CurrentPath()
	rd, err := store.Open(mounted)
	if err != nil {
		return nil, err
	}
	srv, err = startServe([]serve.Mount{{Name: "window", Reader: rd}}, serve.Options{Metrics: reg})
	if err != nil {
		rd.Close()
		return nil, err
	}
	defer srv.stop()
	ingestSrv, err := startHandler(d.Handler())
	if err != nil {
		return nil, err
	}
	defer ingestSrv.stop()

	reader := newLoadGen(srv.base, nil)
	defer reader.close()
	src := newQuerySource(cfg.seed, backgroundMix, storeCodes(rd), nil)
	// One closed-loop reader runs beside the stream until it ends.
	readCtx, stopReads := context.WithCancel(ctx)
	readDone := make(chan loadResult, 1)
	go func() { readDone <- reader.closed(readCtx, src, 1, budget) }()
	// Every path stops the reader and waits for it.
	collectReads := sync.OnceValue(func() loadResult {
		stopReads()
		return <-readDone
	})
	defer collectReads()

	res.regBefore = reg.Snapshot()
	fs0 := meter.counts()
	tasks := engineTasks()
	mem := readMem()
	streamBudget := budget
	if measureCapacity {
		streamBudget = time.Duration(float64(budget) * (1 - capacityShare))
	}
	client := &http.Client{Timeout: 30 * time.Second}
	prevGen := d.Generation()
	seedGen := prevGen
	start := time.Now()
	streamed := 0
	for k, body := range in.batches {
		if k > 0 && time.Since(start) > streamBudget {
			break
		}
		batchSpan = tr.start(handle{}, "bench.batch")
		res.attempted++
		t0 := time.Now()
		span := tr.start(batchSpan, "ingest.POST")
		status, err := post(ctx, client, ingestSrv.base+"/v1/ingest", body)
		span.end()
		if err != nil || status != http.StatusAccepted {
			return nil, fmt.Errorf("POST batch %d: status %d: %v", k, status, err)
		}
		span = tr.start(batchSpan, "ingest.Tick")
		tt := time.Now()
		err = d.Tick()
		res.tickMs = append(res.tickMs, ms(time.Since(tt)))
		span.end()
		if err != nil {
			return nil, fmt.Errorf("tick: %w", err)
		}
		gen := d.Generation()
		if gen != prevGen+1 {
			res.failed++
			res.check(false, "batch %d published generation %d after %d, want one generation per batch", k, gen, prevGen)
			batchSpan.end()
			break
		}
		span = tr.start(batchSpan, "serve.stores")
		answered, err := awaitGeneration(ctx, client, srv.base, "window", gen, 30*time.Second)
		span.end()
		batchSpan.end()
		if err != nil {
			return nil, err
		}
		res.freshMs = append(res.freshMs, ms(answered.Sub(t0)))
		res.firstQueryMs = append(res.firstQueryMs, ms(answered.Sub(remounted)))
		prevGen = gen
		streamed++

		// Outside the freshness interval: the new generation's codes
		// for the reader, and the store layer's costs on it.
		st := d.Status()
		res.windowPatterns = append(res.windowPatterns, float64(st.Patterns))
		res.retired += st.Retired
		t := time.Now()
		nr, err := store.Open(d.CurrentPath())
		if err != nil {
			return nil, err
		}
		res.openMs = append(res.openMs, ms(time.Since(t)))
		src.setCodes(storeCodes(nr))
		if tr != nil {
			t = time.Now()
			_, terr := nr.Transactions()
			_, lerr := nr.AllLevelPatterns()
			if terr != nil || lerr != nil {
				nr.Close()
				return nil, fmt.Errorf("rehydrate generation %d: %v %v", gen, terr, lerr)
			}
			res.rehydrateMs = append(res.rehydrateMs, ms(time.Since(t)))
		}
		nr.Close()
	}
	res.streamS = time.Since(start).Seconds()
	cfg.logf("%d of %d batches in %.1fs", streamed, len(in.batches), res.streamS)
	res.mem = memSince(mem)
	res.engineTasks = engineTasks() - tasks
	fs1 := meter.counts()
	res.fs = fsCounts{
		writeBytes: fs1.writeBytes - fs0.writeBytes,
		writeTime:  fs1.writeTime - fs0.writeTime,
		syncs:      fs1.syncs - fs0.syncs,
		syncTime:   fs1.syncTime - fs0.syncTime,
		renames:    fs1.renames - fs0.renames,
	}
	res.reads = collectReads()
	res.attempted += res.reads.sent
	res.failed += res.reads.failed
	res.regAfter = reg.Snapshot()

	res.status = d.Status()
	st := res.status
	res.check(st.Quarantines == 0 && st.Poisoned == 0, "ingest quarantined %d batches", st.Quarantines)
	res.check(st.FoldFailures == 0, "ingest had %d fold failures", st.FoldFailures)
	res.check(st.Generation == seedGen+streamed, "final generation %d after %d batches from %d", st.Generation, streamed, seedGen)
	res.failed += int(st.FoldFailures + st.Quarantines)
	if err := checkWindow(cfg, in, streamed, d.CurrentPath(), res); err != nil {
		return nil, err
	}
	if !measureCapacity {
		return res, nil
	}
	final, err := store.Open(d.CurrentPath())
	if err != nil {
		return nil, err
	}
	defer final.Close()
	gen := newLoadGen(srv.base, nil)
	defer gen.close()
	gen.check = func(q query, body []byte) error { return checkResponse(final, q, body) }
	gen.checkEvery = cfg.size.checkEvery
	lsrc := newQuerySource(cfg.seed, fullMix, storeCodes(final), storeLabels(final))
	res.maxRate = gen.capacity(ctx, cfg, lsrc, &res.tally)
	return res, nil
}

// checkWindow compares the final generation with a fresh fsg.Mine of
// the final window's transactions: the same codes, supports and TID
// sets.
func checkWindow(cfg config, in *ingestInputs, streamed int, path string, res *ingestResult) error {
	units := append([][]*graph.Graph{in.seedTxns}, in.txns[:streamed]...)
	if len(units) > cfg.size.window {
		units = units[len(units)-cfg.size.window:]
	}
	var txns []*graph.Graph
	for _, u := range units {
		txns = append(txns, u...)
	}
	ref, err := fsg.Mine(txns, fsg.Options{
		MinSupport:  cfg.size.ingestSupport,
		MaxEdges:    cfg.size.ingestMaxEdges,
		MaxSteps:    200000,
		Parallelism: nproc(),
		Progress:    res.reference.progress,
	})
	if err != nil {
		return fmt.Errorf("reference mine: %w", err)
	}
	res.reference.result(ref)
	rd, err := store.Open(path)
	if err != nil {
		return err
	}
	defer rd.Close()
	if fi, err := os.Stat(path); err == nil {
		res.storeBytes = fi.Size()
	}
	res.decodeUs = patternDecodeUs(rd)
	want := map[string]string{}
	for _, p := range ref.Patterns {
		want[p.Code] = fmt.Sprint(p.Support, p.TIDs.Slice())
	}
	res.check(rd.NumTransactions() == len(txns), "final generation holds %d transactions, window has %d", rd.NumTransactions(), len(txns))
	res.check(rd.NumPatterns() == len(want), "final generation holds %d patterns, a fresh mine of the window %d", rd.NumPatterns(), len(want))
	for i := 0; i < rd.NumPatterns(); i++ {
		p, err := rd.PatternLite(i)
		if err != nil {
			return err
		}
		if want[p.Code] != fmt.Sprint(p.Support, p.TIDs.Slice()) {
			res.check(false, "final generation pattern %s differs from a fresh mine of the window", p.Code)
			break
		}
	}
	return nil
}

// handlerServer serves an http.Handler on a loopback port.
type handlerServer struct {
	hs   *http.Server
	base string
	done chan error
}

func startHandler(h http.Handler) (*handlerServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &handlerServer{
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

func (s *handlerServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx) //nolint:errcheck // the benchmark is ending; nothing to do about it
	<-s.done
}

// post sends one JSON body and returns the status code.
func post(ctx context.Context, client *http.Client, u string, body []byte) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}
