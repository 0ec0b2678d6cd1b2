// Package core implements ranked enumeration over join queries — the
// "any-k" algorithms at the centre of Part 3 of the tutorial. Given the
// T-DP of an acyclic query (internal/dp), the iterators here return join
// results one by one in ranking order, without knowing k in advance:
//
//   - ANYK-PART (NewPart): the Lawler–Murty partitioning procedure with
//     pluggable successor structures — variants Eager, Lazy, All, Take2
//     and Quick, mirroring the companion paper's taxonomy.
//   - ANYK-REC (NewRec): recursive enumeration à la Hoffman–Pavley /
//     Jiménez–Marzal (REA), with per-(node, group) memoized solution
//     lists shared across prefixes.
//   - Batch (NewBatch): the non-any-k baseline — materialise the full
//     output with its own constant-delay odometer over the T-DP, sort,
//     then iterate.
//
// Cyclic queries are handled by internal/decomp, which unions several
// T-DPs and merges their iterators with Merge. Enumeration itself is
// single-threaded and deterministic: all parallelism in the library
// lives in the prepare phase upstream (internal/decomp bag
// materialisation over internal/parallel), which is why an iterator,
// once constructed, yields the same sequence whatever parallelism
// prepared its plan. See PAPER.md for the tutorial this reproduces and
// docs/ARCHITECTURE.md for the full data flow.
package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/dp"
	"repro/internal/relation"
)

// Result is one join result in ranking order.
type Result struct {
	// Tuple is the output tuple, aligned with the T-DP's OutAttrs. It is
	// borrowed: valid until the iterator's next Next or Close, and not
	// to be written. slices.Clone it to keep it; Collect returns copies.
	Tuple relation.Tuple
	// Weight is the aggregated weight under the T-DP's ranking function.
	Weight float64
}

// Iterator yields join results in non-decreasing ranking order.
//
// The contract follows database cursors: pull with Next until it reports
// false, then consult Err to distinguish natural exhaustion (nil) from
// early termination — ErrClosed after Close, or the context's error
// after cancellation. Close ends enumeration, is idempotent, and is safe
// after exhaustion; the iterator's state is reclaimed with the iterator.
// Next is single-consumer; Close and Err may come from any goroutine.
// Every iterator emits its rows into one buffer it owns, so a drain
// allocates nothing per result and a result's Tuple is valid until the
// next Next or Close.
type Iterator interface {
	// Next returns the next-ranked result; ok is false when enumeration
	// is complete, the iterator was closed, or its context was canceled.
	// The result's Tuple is valid until the next Next or Close.
	Next() (r Result, ok bool)
	// Err reports why Next returned false before exhaustion (nil after a
	// full natural drain).
	Err() error
	// Close terminates enumeration. It always returns nil and may be
	// called more than once.
	Close() error
}

// Variant names an any-k algorithm.
type Variant string

// The supported algorithm variants.
const (
	// Eager pre-sorts every candidate list at first touch.
	Eager Variant = "Eager"
	// Lazy sorts candidate lists incrementally with a heap (the
	// best-overall PART variant in the companion paper).
	Lazy Variant = "Lazy"
	// Quick sorts candidate lists incrementally with lazy quicksort.
	Quick Variant = "Quick"
	// All pushes every alternative of a deviation at once (no per-list
	// structure; the global queue does the sorting).
	All Variant = "All"
	// Take2 heapifies candidate lists; each candidate has at most two
	// successors (its heap children).
	Take2 Variant = "Take2"
	// Rec is recursive enumeration (ANYK-REC), sharing ranked suffix
	// solutions across prefixes.
	Rec Variant = "Rec"
	// Batch is the full-join-then-sort baseline.
	Batch Variant = "Batch"
)

// Variants lists all variants in canonical report order.
func Variants() []Variant {
	return []Variant{Eager, Lazy, Quick, All, Take2, Rec, Batch}
}

// New returns the iterator implementing the given variant over t. The
// context cancels enumeration: after ctx is done, Next returns false and
// Err returns the context's error. A nil ctx means context.Background().
// Many iterators (across variants and goroutines) may share one t: they
// read it, and share its candidate structures through its memo
// (dp.TDP.Cands), which is safe for concurrent use.
func New(ctx context.Context, t *dp.TDP, v Variant) (Iterator, error) {
	switch v {
	case Eager, Lazy, Quick, All, Take2:
		return NewPart(ctx, t, v)
	case Rec:
		return NewRec(ctx, t), nil
	case Batch:
		return NewBatch(ctx, t), nil
	default:
		return nil, CheckVariant(v)
	}
}

// CheckVariant returns the error New reports for a variant it does not
// implement, nil for the ones it does — for callers that must reject a
// bad variant before (or without) reaching New.
func CheckVariant(v Variant) error {
	switch v {
	case Eager, Lazy, Quick, All, Take2, Rec, Batch:
		return nil
	}
	return fmt.Errorf("core: unknown variant %q", v)
}

// Collect drains up to k results from it (k ≤ 0 collects everything),
// copying each tuple: the results belong to the caller.
func Collect(it Iterator, k int) []Result {
	var out []Result
	for {
		r, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, Result{Tuple: slices.Clone(r.Tuple), Weight: r.Weight})
		if k > 0 && len(out) >= k {
			return out
		}
	}
}

// rowBuf is the one tuple a T-DP iterator emits every result into,
// allocated on the first result: a Run that is never pulled pays
// nothing for it.
type rowBuf struct{ tuple relation.Tuple }

// emit renders rows into the buffer and returns it.
func (b *rowBuf) emit(t *dp.TDP, rows []int32) relation.Tuple {
	if b.tuple == nil {
		b.tuple = make(relation.Tuple, len(t.OutAttrs))
	}
	t.EmitInto(b.tuple, rows)
	return b.tuple
}
