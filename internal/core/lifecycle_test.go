package core

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"repro/internal/relation"
	"repro/internal/workload"
)

// raceInstance is a path query with enough results that a draining
// goroutine is still mid-enumeration when the closer strikes.
func raceInstance() *workload.Instance {
	return workload.Path(3, 400, 40, workload.UniformWeights(), 7)
}

// TestCloseConcurrentWithNext drains each variant's iterator on one
// goroutine while another calls Close mid-stream. Run under -race this
// is the audit for the server's disconnect path: a watchdog goroutine
// closes the iterator the handler is still pulling from. The iterator
// must never panic, must stop yielding soon after Close, and must
// report either ErrClosed or nil (when the drain won the race and
// exhausted first).
func TestCloseConcurrentWithNext(t *testing.T) {
	inst := raceInstance()
	for _, v := range Variants() {
		t.Run(string(v), func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				tdp := buildTDP(t, inst, sum)
				it, err := New(context.Background(), tdp, v)
				if err != nil {
					t.Fatal(err)
				}
				results := make(chan int, 1)
				closed := make(chan struct{})
				go func() {
					n := 0
					for {
						if _, ok := it.Next(); !ok {
							break
						}
						n++
						if n == 10 {
							close(closed) // signal the closer mid-stream
						}
					}
					results <- n
				}()
				<-closed
				it.Close()
				n := <-results
				if err := it.Err(); err != nil && !errors.Is(err, ErrClosed) {
					t.Fatalf("trial %d: Err() = %v, want nil or ErrClosed", trial, err)
				}
				// After Close has returned and the drain goroutine exited,
				// Next must stay terminal.
				if _, ok := it.Next(); ok {
					t.Fatalf("trial %d: Next yielded after Close (drained %d)", trial, n)
				}
			}
		})
	}
}

// TestCloseConcurrentWithNextHammer has many goroutines closing while
// one drains — Close must be idempotent and race-free from any number
// of goroutines.
func TestCloseConcurrentWithNextHammer(t *testing.T) {
	inst := raceInstance()
	tdp := buildTDP(t, inst, sum)
	it, err := New(context.Background(), tdp, Lazy)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			it.Close()
		}()
	}
	go func() {
		// Unblock the closers once the drain is under way.
		for i := 0; i < 5; i++ {
			if _, ok := it.Next(); !ok {
				break
			}
		}
		close(start)
		for {
			if _, ok := it.Next(); !ok {
				return
			}
		}
	}()
	wg.Wait()
	if err := it.Err(); err != nil && !errors.Is(err, ErrClosed) {
		t.Fatalf("Err() = %v, want nil or ErrClosed", err)
	}
}

// TestCancelConcurrentWithNext cancels the iterator's context from
// another goroutine mid-drain: Next must stop and Err must surface the
// context error (or ErrClosed/nil if a later Close or exhaustion beat
// the cancellation to the latch).
func TestCancelConcurrentWithNext(t *testing.T) {
	inst := raceInstance()
	for trial := 0; trial < 20; trial++ {
		tdp := buildTDP(t, inst, sum)
		ctx, cancel := context.WithCancel(context.Background())
		it, err := New(ctx, tdp, Lazy)
		if err != nil {
			t.Fatal(err)
		}
		fired := make(chan struct{})
		done := make(chan int)
		go func() {
			n := 0
			for {
				if _, ok := it.Next(); !ok {
					break
				}
				n++
				if n == 5 {
					close(fired)
				}
			}
			done <- n
		}()
		<-fired
		cancel()
		n := <-done
		err = it.Err()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("trial %d: Err() = %v after %d results, want nil or context.Canceled", trial, err, n)
		}
		it.Close()
	}
}

// TestMergeCloseConcurrentWithNext exercises the multi-tree union path:
// closing the merge closes every source while the drain goroutine may
// be pulling from one of them.
func TestMergeCloseConcurrentWithNext(t *testing.T) {
	inst := raceInstance()
	for trial := 0; trial < 20; trial++ {
		a, err := New(context.Background(), buildTDP(t, inst, sum), Lazy)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(context.Background(), buildTDP(t, inst, sum), Lazy)
		if err != nil {
			t.Fatal(err)
		}
		m := Merge(context.Background(), sum, a, b)
		mid := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			n := 0
			for {
				if _, ok := m.Next(); !ok {
					return
				}
				n++
				if n == 10 {
					close(mid)
				}
			}
		}()
		<-mid
		m.Close()
		<-done
		if err := m.Err(); err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("trial %d: merge Err() = %v, want nil or ErrClosed", trial, err)
		}
	}
}

// TestReleaseAfterExhaustion checks the deferred-release bookkeeping:
// a clean drain ends with Err nil and further Next/Close calls are
// stable no-ops (the release hook must not fire twice or wedge the
// latch).
func TestReleaseAfterExhaustion(t *testing.T) {
	inst := tinyPath()
	for _, v := range Variants() {
		it, err := New(context.Background(), buildTDP(t, inst, sum), v)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			if _, ok := it.Next(); !ok {
				break
			}
			n++
		}
		if n != 5 {
			t.Fatalf("%s: drained %d results, want 5", v, n)
		}
		if err := it.Err(); err != nil {
			t.Fatalf("%s: Err() = %v after clean drain", v, err)
		}
		it.Close()
		it.Close()
		if err := it.Err(); err != nil {
			t.Fatalf("%s: Err() = %v after post-exhaustion Close", v, err)
		}
		if _, ok := it.Next(); ok {
			t.Fatalf("%s: Next yielded after exhaustion", v)
		}
	}
}

// sliceIter yields fixed results, writing each into one reused tuple as
// every real iterator does, and then fails with err (or, when err is
// nil, is exhausted). pulls counts the Next calls that got past the
// lifecycle.
type sliceIter struct {
	*Lifecycle
	rs    []Result
	err   error
	out   relation.Tuple
	pulls int
}

func newSliceIter(err error, rs ...Result) *sliceIter {
	return &sliceIter{Lifecycle: NewLifecycle(context.Background()), rs: rs, err: err}
}

func (s *sliceIter) Next() (Result, bool) {
	if !s.Proceed() {
		return Result{}, false
	}
	s.pulls++
	if len(s.rs) == 0 {
		if s.err != nil {
			s.Fail(s.err)
		} else {
			s.Exhaust()
		}
		return Result{}, false
	}
	r := s.rs[0]
	s.rs = s.rs[1:]
	s.out = append(s.out[:0], r.Tuple...)
	return Result{Tuple: s.out, Weight: r.Weight}, true
}

// TestMergeDeliversHeadBeforeSourceError: a source that fails after its
// first result still has that result delivered, in order, with its own
// row; the error stops the merge on the following call.
func TestMergeDeliversHeadBeforeSourceError(t *testing.T) {
	boom := errors.New("source failed")
	bad := newSliceIter(boom, Result{Tuple: relation.Tuple{1}, Weight: 1})
	good := newSliceIter(nil, Result{Tuple: relation.Tuple{2}, Weight: 2}, Result{Tuple: relation.Tuple{3}, Weight: 3})
	m := Merge(context.Background(), sum, bad, good)
	r, ok := m.Next()
	if !ok || r.Weight != 1 || !slices.Equal(r.Tuple, relation.Tuple{1}) {
		t.Fatalf("first result = %v, %v; want [1] weight 1 (err %v)", r, ok, m.Err())
	}
	if r, ok := m.Next(); ok {
		t.Fatalf("merge yielded %v past its failed source", r)
	}
	if err := m.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err() = %v, want the source's error", err)
	}
}

// TestMergeStopsAtOnce: after Close, or after its context is canceled,
// the merge's next Next is false and pulls no source, even though the
// source of the last head still waits to be refilled.
func TestMergeStopsAtOnce(t *testing.T) {
	results := func() []Result {
		return []Result{{Tuple: relation.Tuple{1}, Weight: 1}, {Tuple: relation.Tuple{2}, Weight: 2}}
	}
	for _, stop := range []struct {
		name string
		want error
		do   func(m Iterator, cancel context.CancelFunc)
	}{
		{"close", ErrClosed, func(m Iterator, _ context.CancelFunc) { m.Close() }},
		{"cancel", context.Canceled, func(_ Iterator, cancel context.CancelFunc) { cancel() }},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		a, b := newSliceIter(nil, results()...), newSliceIter(nil, results()...)
		m := Merge(ctx, sum, a, b)
		if _, ok := m.Next(); !ok {
			t.Fatalf("%s: no first result", stop.name)
		}
		pulls := a.pulls + b.pulls
		stop.do(m, cancel)
		if r, ok := m.Next(); ok {
			t.Fatalf("%s: merge yielded %v after it was stopped", stop.name, r)
		}
		if got := a.pulls + b.pulls; got != pulls {
			t.Errorf("%s: the stopped merge pulled its sources %d more times", stop.name, got-pulls)
		}
		if err := m.Err(); !errors.Is(err, stop.want) {
			t.Errorf("%s: Err() = %v, want %v", stop.name, err, stop.want)
		}
		cancel()
	}
}
