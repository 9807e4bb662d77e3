package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestParallelismNormalisation(t *testing.T) {
	if got := Parallelism(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Parallelism(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Parallelism(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Parallelism(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Parallelism(7); got != 7 {
		t.Errorf("Parallelism(7) = %d, want 7", got)
	}
}

func TestMapOrderedAcrossWorkerCounts(t *testing.T) {
	const n = 100
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, p := range []int{1, 2, 4, 16, 0} {
		got := Map(p, n, func(i int) int { return i * i })
		if len(got) != n {
			t.Fatalf("p=%d: got %d results, want %d", p, len(got), n)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("p=%d: result[%d] = %d, want %d", p, i, got[i], want[i])
			}
		}
	}
}

func TestMapZeroItems(t *testing.T) {
	if got := Map(4, 0, func(i int) int { return i }); got != nil {
		t.Errorf("Map over 0 items = %v, want nil", got)
	}
}

func TestMapBoundsWorkers(t *testing.T) {
	const p = 3
	var cur, max atomic.Int64
	Map(p, 64, func(i int) int {
		c := cur.Add(1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		defer cur.Add(-1)
		runtime.Gosched()
		return i
	})
	if m := max.Load(); m > p {
		t.Errorf("observed %d concurrent workers, want <= %d", m, p)
	}
}

func TestMapCtxFirstErrorInInputOrder(t *testing.T) {
	errBoom := errors.New("boom")
	// Every odd index fails; the reported error must be the one with
	// the smallest input index regardless of scheduling.
	_, err := MapCtx(context.Background(), 8, 50, func(_ context.Context, i int) (int, error) {
		if i%2 == 1 {
			return 0, fmt.Errorf("index %d: %w", i, errBoom)
		}
		return i, nil
	})
	if err == nil || err.Error() != "index 1: boom" {
		t.Errorf("err = %v, want index 1: boom", err)
	}
}

func TestMapCtxCancelledParent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MapCtx(ctx, 4, 10, func(_ context.Context, i int) (int, error) { return i, nil })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestMapCtxCancellationSkipsRemainingWork(t *testing.T) {
	var calls atomic.Int64
	_, err := MapCtx(context.Background(), 1, 1000, func(_ context.Context, i int) (int, error) {
		calls.Add(1)
		if i == 3 {
			return 0, errors.New("stop")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if c := calls.Load(); c != 4 {
		t.Errorf("fn called %d times after serial abort at index 3, want 4", c)
	}
}

// TestMapCtxRealErrorNotMaskedByCancellation: a worker observing the
// group's own cancellation (after another worker's real error) must
// not report context.Canceled from a lower input index and mask the
// real error.
func TestMapCtxRealErrorNotMaskedByCancellation(t *testing.T) {
	errBoom := errors.New("boom")
	release := make(chan struct{})
	_, err := MapCtx(context.Background(), 2, 2, func(ctx context.Context, i int) (int, error) {
		if i == 0 {
			// Cooperatively honor cancellation, like a well-behaved fn.
			<-release
			<-ctx.Done()
			return 0, ctx.Err()
		}
		defer close(release)
		return 0, fmt.Errorf("index %d: %w", i, errBoom)
	})
	if !errors.Is(err, errBoom) {
		t.Errorf("err = %v, want the real error from index 1, not cancellation fallout", err)
	}
}

// TestMapCtxWorkerPanicBecomesError: a panic in one task of a
// parallel call is returned as that task's error, stack included, and
// cancels the rest — it must not crash the process. The other three
// workers block until cancelled, so no task beyond the first four
// ever starts. The recovered panic is counted on
// tnd_engine_panics_total.
func TestMapCtxWorkerPanicBecomesError(t *testing.T) {
	const p, n = 4, 1000
	q0, i0, pan0 := tasksQueued.Value(), tasksInFlight.Value(), tasksPanicked.Value()
	var calls atomic.Int64
	_, err := MapCtx(context.Background(), p, n, func(ctx context.Context, i int) (int, error) {
		calls.Add(1)
		if i == p-1 {
			panic("boom")
		}
		<-ctx.Done()
		return 0, ctx.Err()
	})
	if !errors.Is(err, ErrPanic) || !strings.Contains(err.Error(), fmt.Sprintf("(task %d): boom", p-1)) ||
		!strings.Contains(err.Error(), "goroutine") {
		t.Fatalf("err = %v, want the recovered panic with its stack", err)
	}
	if c := calls.Load(); c > p {
		t.Errorf("fn called %d times, want at most %d (workers must stop after the panic)", c, p)
	}
	if tasksQueued.Value() != q0 || tasksInFlight.Value() != i0 {
		t.Errorf("gauges did not settle: queued %d->%d, inflight %d->%d",
			q0, tasksQueued.Value(), i0, tasksInFlight.Value())
	}
	if d := tasksPanicked.Value() - pan0; d != 1 {
		t.Errorf("tnd_engine_panics_total rose by %d, want 1", d)
	}
}

// TestMapWorkerPanicReachesCaller: Map has no error return, so a
// worker panic must panic in the caller rather than come back as a
// nil or partial slice that a miner would take for an empty level.
func TestMapWorkerPanicReachesCaller(t *testing.T) {
	var got []int
	func() {
		defer func() {
			r := recover()
			err, ok := r.(error)
			if !ok || !errors.Is(err, ErrPanic) || !strings.Contains(err.Error(), "(task 7): boom") {
				t.Errorf("recovered %v, want the re-raised worker panic", r)
			}
		}()
		got = Map(4, 100, func(i int) int {
			if i == 7 {
				panic("boom")
			}
			return i
		})
	}()
	if got != nil {
		t.Errorf("Map returned %d results after a task panicked", len(got))
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	Map(4, 100, func(i int) struct{} {
		c.Add(2)
		return struct{}{}
	})
	if c.Load() != 200 {
		t.Errorf("Counter = %d, want 200", c.Load())
	}
}
