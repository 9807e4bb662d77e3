// Package engine is the shared concurrent execution layer of the
// mining pipelines: a context-aware worker pool with bounded
// parallelism, deterministic input-ordered result merging, shared
// work accounting backed by atomic counters, and cancellation on
// abort.
//
// Every miner in this repository fans independent units of work —
// subgraph-isomorphism tests per (candidate × transaction) in FSG,
// beam-candidate extension in SUBDUE, the m random partitionings of
// Algorithm 1, per-day graph construction in the Section 6 temporal
// pipeline — through this package. Results are merged in input order,
// so mining output is byte-for-byte identical regardless of the
// worker count.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"tnkd/internal/obs"
)

// Pool gauges on the process-wide registry: how much work is queued
// behind the pool, how much is executing right now, and how much has
// ever completed. Every MapCtx call (and Map, which wraps it)
// contributes; early error/cancellation exits return their unclaimed
// remainder so the gauges settle back to zero. tasksPanicked counts
// the worker panics MapCtx recovered.
var (
	tasksQueued   = obs.Default.Gauge("tnd_engine_tasks_queued")
	tasksInFlight = obs.Default.Gauge("tnd_engine_tasks_inflight")
	tasksTotal    = obs.Default.Counter("tnd_engine_tasks_total")
	tasksPanicked = obs.Default.Counter("tnd_engine_panics_total")
)

// taskMeter tracks one MapCtx call's contribution to the pool gauges.
type taskMeter struct {
	n       int
	started atomic.Int64
}

func newTaskMeter(n int) *taskMeter {
	tasksQueued.Add(int64(n))
	return &taskMeter{n: n}
}

// start moves one task from queued to in-flight.
func (m *taskMeter) start() {
	m.started.Add(1)
	tasksQueued.Add(-1)
	tasksInFlight.Add(1)
}

// finish retires one in-flight task.
func (m *taskMeter) finish() {
	tasksInFlight.Add(-1)
	tasksTotal.Inc()
}

// close returns whatever never started to the queue gauge.
func (m *taskMeter) close() {
	tasksQueued.Add(m.started.Load() - int64(m.n))
}

// Parallelism normalises a user-supplied worker count: values <= 0
// select runtime.GOMAXPROCS(0) (one worker per schedulable CPU), and
// any positive value is used as given.
func Parallelism(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// ErrPanic marks the error MapCtx returns for a task that panicked
// on a worker goroutine; the error text carries the panic value and
// the worker's stack.
var ErrPanic = errors.New("task panicked")

// Map runs fn(i) for every i in [0, n) on at most p workers (after
// Parallelism normalisation) and returns the results in input order.
// With p == 1 or n <= 1 it runs inline with no goroutines, so a
// serial run has zero scheduling overhead and is trivially identical
// to the parallel one. A panic in fn panics in the caller at any p:
// fn cannot fail and the context is never cancelled, so the only
// error MapCtx can report here is a recovered worker panic, and Map
// re-raises it rather than return a partial result.
func Map[T any](p, n int, fn func(i int) T) []T {
	res, err := MapCtx(context.Background(), p, n, func(_ context.Context, i int) (T, error) {
		return fn(i), nil
	})
	if err != nil {
		panic(err)
	}
	return res
}

// MapCtx is Map with cancellation: fn receives a context that is
// cancelled as soon as any call returns a non-nil error (or the
// parent context is cancelled), and the first error in input order
// is returned. After an error only the indices above the lowest
// failed one are skipped — a lower index still runs, so its error, if
// any, is the one reported; parent cancellation stops all work. On
// success every slot of the result is filled and the slice is in
// input order. A panic in fn on a worker goroutine is recovered and
// returned as that index's error (wrapping ErrPanic, stack included)
// and counted on tnd_engine_panics_total, so it cancels the call
// instead of killing the process (the inline p == 1 path panics in
// the caller's goroutine, as any direct call would).
func MapCtx[T any](ctx context.Context, p, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	p = Parallelism(p)
	if p > n {
		p = n
	}
	results := make([]T, n)
	meter := newTaskMeter(n)
	defer meter.close()
	if p == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			meter.start()
			v, err := fn(ctx, i)
			meter.finish()
			if err != nil {
				return nil, err
			}
			results[i] = v
		}
		return results, nil
	}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next   atomic.Int64 // next index to claim
		wg     sync.WaitGroup
		errMu  sync.Mutex
		firstI atomic.Int64 // input index of the earliest error seen; written under errMu
		firstE error
	)
	firstI.Store(int64(n))
	report := func(i int, err error) {
		// Cancellation fallout is not an error source: once a real
		// error has been reported (report precedes cancel, so firstE
		// is set before wctx reads cancelled), a later fn returning
		// the group's own context.Canceled from a lower index must
		// not mask it. Parent-context cancellation is surfaced by the
		// ctx.Err() check after Wait.
		if errors.Is(err, context.Canceled) && wctx.Err() != nil && ctx.Err() == nil {
			return
		}
		errMu.Lock()
		if int64(i) < firstI.Load() {
			firstI.Store(int64(i))
			firstE = err
		}
		errMu.Unlock()
		cancel()
	}
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func() {
			defer wg.Done()
			i := -1 // the index in flight, for the panic report
			defer func() {
				if r := recover(); r != nil {
					meter.finish()
					tasksPanicked.Inc()
					report(i, fmt.Errorf("engine: %w (task %d): %v\n%s", ErrPanic, i, r, debug.Stack()))
				}
			}()
			for {
				// Claims rise monotonically, so once this index lies
				// above the lowest failure every later claim does too.
				i = int(next.Add(1)) - 1
				if i >= n || int64(i) > firstI.Load() || ctx.Err() != nil {
					return
				}
				meter.start()
				v, err := fn(wctx, i)
				meter.finish()
				if err != nil {
					report(i, err)
					return
				}
				results[i] = v
			}
		}()
	}
	wg.Wait()
	if firstE != nil {
		return nil, firstE
	}
	// The parent context may have been cancelled after the last claim.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// Counter is a shared atomic tally (iso tests performed, budgeted
// aborts observed, candidates generated, ...). The zero value is
// ready to use.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int) { c.n.Add(int64(d)) }

// Load returns the current value.
func (c *Counter) Load() int { return int(c.n.Load()) }
