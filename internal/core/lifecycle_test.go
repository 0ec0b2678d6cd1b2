package core

import (
	"context"
	"errors"
	"sync"
	"testing"

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
