package dp

import (
	"sync"
	"sync/atomic"
	"weak"

	"repro/internal/heap"
)

// Memo holds a value built on first use for as long as something else
// holds it. The memo keeps only a weak pointer, so once no holder is
// left the next collection reclaims the value, and the next Get builds
// it anew: an idle memo costs no resident bytes. Get is safe for
// concurrent use, and concurrent callers share one value.
type Memo[T any] struct {
	mu sync.Mutex
	p  weak.Pointer[T]
}

// Get returns the held value, building it with build when there is
// none. The caller holds the value for as long as it uses it.
func (m *Memo[T]) Get(build func() *T) *T {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v := m.p.Value(); v != nil {
		return v
	}
	v := build()
	m.p = weak.Make(v)
	return v
}

// Cands is one kind of candidate structure over a T-DP's groups: at most
// one structure per group of every node, each built by the first
// enumeration that touches its group, published through the group's
// slot, and read by every later one. A structure is a pure function of
// the T-DP, the group and the kind, so whichever enumeration builds it,
// the others read the same ranks.
type Cands struct {
	base  []int32 // base[pos] is the slot of node pos's group 0
	slots []atomic.Pointer[heap.Ranked]
}

// Cands returns the T-DP's table for the structures of one kind. The
// T-DP holds the table weakly (Memo): it lives while some enumeration
// holds it, and a T-DP no enumeration reads keeps none.
func (t *TDP) Cands(kind string) *Cands {
	m, ok := t.cands.Load(kind)
	if !ok {
		m, _ = t.cands.LoadOrStore(kind, new(Memo[Cands]))
	}
	return m.(*Memo[Cands]).Get(func() *Cands {
		c := &Cands{base: make([]int32, len(t.Nodes))}
		groups := 0
		for pos, n := range t.Nodes {
			c.base[pos] = int32(groups)
			groups += n.Groups.Len()
		}
		c.slots = make([]atomic.Pointer[heap.Ranked], groups)
		return c
	})
}

// Slot returns the slot of group g of node pos: nil until the group's
// structure is published. Publish with CompareAndSwap(nil, s), so that
// of two racing builders one wins and both use its structure.
func (c *Cands) Slot(pos int, g int32) *atomic.Pointer[heap.Ranked] {
	return &c.slots[c.base[pos]+g]
}
