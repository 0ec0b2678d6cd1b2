package heap

import (
	"sync"
	"sync/atomic"
)

// Ranked is a list of int32 ids in rank order that many goroutines read
// at once. Ranks below a published length are final and are read with
// no lock. A reader that asks for a later rank extends the list under a
// mutex, by the incremental sort the list was built with, and then
// publishes the new length. A list built final (Final) never locks.
//
// The sorts write only at ranks at or past their sorted length, which is
// the published one, so a lock-free read never meets a write, and every
// reader sees the ranks the sort alone would give: the i-th id is the
// same whoever extended the list, and in whatever steps.
type Ranked struct {
	ids  []int32
	done atomic.Int32 // ranks [0, done) are final
	ext  *extension   // nil when every rank is final
}

// extension is the mutable half of a Ranked that is still being sorted.
type extension struct {
	mu  sync.Mutex
	inc incremental
}

// incremental is an in-place incremental sort of a Ranked's ids.
type incremental interface {
	Get(i int) (int32, bool)
	// final is the length of the sorted prefix.
	final() int
}

func (s *IncSort) final() int  { return s.sorted }
func (q *IncQuick) final() int { return q.sortedUpTo }

// Final returns the list of ids, already in their final order, which it
// takes ownership of.
func Final(ids []int32) *Ranked {
	r := &Ranked{ids: ids}
	r.done.Store(int32(len(ids)))
	return r
}

// SharedIncSort returns the list of ids ranked by keys[id], descending if
// desc, in IncSort's order. It takes ownership of ids and sorts them as
// the ranks are asked for.
func SharedIncSort(keys []float64, desc bool, ids []int32) *Ranked {
	b := &struct {
		Ranked
		extension
		s IncSort
	}{s: NewIncSort(keys, desc, ids)}
	b.ids, b.ext, b.inc = b.s.ids, &b.extension, &b.s
	return &b.Ranked
}

// SharedIncQuick is SharedIncSort in IncQuick's order.
func SharedIncQuick(keys []float64, desc bool, ids []int32) *Ranked {
	b := &struct {
		Ranked
		extension
		q IncQuick
	}{q: NewIncQuick(keys, desc, ids)}
	b.ids, b.ext, b.inc = b.q.ids, &b.extension, &b.q
	return &b.Ranked
}

// Total reports the number of ids.
func (r *Ranked) Total() int { return len(r.ids) }

// Get returns the id of rank i (0-based). It reports false if
// i >= Total().
func (r *Ranked) Get(i int) (int32, bool) {
	if i < int(r.done.Load()) {
		return r.ids[i], true
	}
	if i >= len(r.ids) {
		return 0, false
	}
	return r.extend(i), true
}

// extend sorts the list up to rank i, which is in range, under the
// mutex, and publishes the sorted length. It sorts an eighth beyond i,
// so that a reader walking the ranks in order takes the mutex O(log n)
// times instead of n, at the cost of at most i/8 ranks no reader may ask
// for; the ranks are the same either way.
func (r *Ranked) extend(i int) int32 {
	e := r.ext
	e.mu.Lock()
	defer e.mu.Unlock()
	e.inc.Get(min(i+i/8, len(r.ids)-1))
	r.done.Store(int32(e.inc.final()))
	return r.ids[i]
}
