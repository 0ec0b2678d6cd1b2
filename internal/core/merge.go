package core

import (
	"context"

	"repro/internal/heap"
	"repro/internal/ranking"
)

// Merge combines several ranked iterators into one ranked iterator — the
// union step for cyclic queries decomposed into multiple trees (§3's
// submodular-width decompositions route disjoint subsets of the input to
// different trees, so their outputs interleave by weight).
type mergeIter struct {
	*Lifecycle
	pq   heap.Heap[mergeHead]
	srcs []Iterator
	// last is the source of the head Next returned last. Its row is
	// borrowed from that source, so the source is refilled only on the
	// following Next; every other source's row waits, unread, in pq.
	last Iterator
}

type mergeHead struct {
	r   Result
	src Iterator
}

// Merge returns an iterator yielding the union of the inputs in ranking
// order. It is a bag union: the inputs must be disjoint for the output
// to be duplicate-free, which the heavy/light decompositions guarantee
// by construction. Closing the merge closes every source; a source error
// (including cancellation surfaced by a source) is latched and reported
// from Err.
func Merge(ctx context.Context, agg ranking.Aggregate, iters ...Iterator) Iterator {
	m := &mergeIter{
		Lifecycle: NewLifecycle(ctx),
		pq:        heap.New[mergeHead](agg.Desc()),
		srcs:      iters,
	}
	for _, it := range iters {
		if r, ok := it.Next(); ok {
			m.pq.Push(r.Weight, mergeHead{r: r, src: it})
		} else if err := it.Err(); err != nil {
			m.Fail(err)
			return m
		}
	}
	return m
}

// Next refills the queue from the source of the head it returned last,
// then pops the lightest head. A source that stopped with an error stops
// the merge with it, after the head it had already delivered.
func (m *mergeIter) Next() (Result, bool) {
	if !m.Proceed() {
		return Result{}, false
	}
	if src := m.last; src != nil {
		m.last = nil
		if r, ok := src.Next(); ok {
			m.pq.Push(r.Weight, mergeHead{r: r, src: src})
		} else if err := src.Err(); err != nil {
			m.Fail(err)
			return Result{}, false
		}
	}
	_, head, ok := m.pq.Pop()
	if !ok {
		m.Exhaust()
		return Result{}, false
	}
	m.last = head.src
	return head.r, true
}

// Close terminates the merge and closes every source iterator. Like all
// lifecycle-backed Closes it is safe concurrently with Next: a Next in
// flight finishes, and one that finds its source closed latches the
// source's ErrClosed, the error this Close latches too.
func (m *mergeIter) Close() error {
	for _, s := range m.srcs {
		s.Close()
	}
	m.Lifecycle.Close()
	return nil
}

// Limit wraps an iterator to stop after k results. Err and Close
// delegate to the wrapped iterator.
func Limit(it Iterator, k int) Iterator { return &limitIter{it: it, left: k} }

type limitIter struct {
	it   Iterator
	left int
}

func (l *limitIter) Next() (Result, bool) {
	if l.left <= 0 {
		return Result{}, false
	}
	l.left--
	return l.it.Next()
}

func (l *limitIter) Err() error   { return l.it.Err() }
func (l *limitIter) Close() error { return l.it.Close() }
