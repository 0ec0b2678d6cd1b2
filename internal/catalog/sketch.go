package catalog

import (
	"math"
	"math/bits"
	"sort"
)

const (
	// exactDistinctLimit is the set size below which DistinctCounter
	// stays exact; past it the counter degrades to HyperLogLog registers
	// (constant memory, ~1.6% standard error at hllP = 12).
	exactDistinctLimit = 1 << 12
	hllP               = 12 // 2^12 registers
)

// DistinctCounter estimates the number of distinct values in a stream.
// Small streams are counted exactly in a hash set; once the set exceeds
// exactDistinctLimit the counter converts to a HyperLogLog sketch and
// stays within constant memory however long the stream runs.
type DistinctCounter struct {
	exact map[int64]struct{} // nil once the counter degraded to HLL
	regs  []uint8
}

// NewDistinctCounter returns an empty counter.
func NewDistinctCounter() *DistinctCounter {
	return &DistinctCounter{exact: make(map[int64]struct{})}
}

// Add observes one value.
func (d *DistinctCounter) Add(v int64) {
	if d.exact != nil {
		d.exact[v] = struct{}{}
		if len(d.exact) <= exactDistinctLimit {
			return
		}
		// Degrade: replay the exact set into fresh HLL registers.
		d.regs = make([]uint8, 1<<hllP)
		for u := range d.exact {
			d.observe(hash64(uint64(u)))
		}
		d.exact = nil
		return
	}
	d.observe(hash64(uint64(v)))
}

func (d *DistinctCounter) observe(h uint64) {
	idx := h >> (64 - hllP)
	// The injected low bit bounds the rank at 64-hllP+1 so an all-zero
	// suffix cannot overflow the register width.
	rest := h<<hllP | 1<<(hllP-1)
	rank := uint8(bits.LeadingZeros64(rest)) + 1
	if rank > d.regs[idx] {
		d.regs[idx] = rank
	}
}

// Exact reports whether Estimate is an exact count.
func (d *DistinctCounter) Exact() bool { return d.exact != nil }

// Estimate returns the distinct count: exact below the limit, the
// HyperLogLog estimate (with the standard linear-counting small-range
// correction) beyond it.
func (d *DistinctCounter) Estimate() float64 {
	if d.exact != nil {
		return float64(len(d.exact))
	}
	m := float64(len(d.regs))
	sum := 0.0
	zeros := 0
	for _, r := range d.regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	est := alpha * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		est = m * math.Log(m/float64(zeros))
	}
	return est
}

// hash64 is the splitmix64 finalizer — the same mixer the workload
// generators use, applied here as a stateless hash.
func hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HeavyHit is one (value, count) entry of a Misra–Gries summary. Count
// is a lower bound on the value's true frequency, undercounting by at
// most streamLength/k.
type HeavyHit struct {
	Value int64
	Count int
}

// MisraGries is the Misra–Gries heavy-hitter summary with k counters:
// every value whose true frequency exceeds Total()/k is guaranteed to
// survive in the summary (no false negatives above the threshold), and
// each surviving counter underestimates its value's frequency by at
// most Total()/k.
type MisraGries struct {
	k      int
	counts map[int64]int
	n      int
}

// NewMisraGries returns a summary with k counters (k is clamped to ≥ 2).
func NewMisraGries(k int) *MisraGries {
	if k < 2 {
		k = 2
	}
	return &MisraGries{k: k, counts: make(map[int64]int, k)}
}

// Add observes one value.
func (m *MisraGries) Add(v int64) {
	m.n++
	if c, ok := m.counts[v]; ok {
		m.counts[v] = c + 1
		return
	}
	if len(m.counts) < m.k-1 {
		m.counts[v] = 1
		return
	}
	// All counters occupied: decrement everyone, dropping zeros. Each
	// such event removes k units paid for by k prior arrivals, so the
	// total work stays linear in the stream length.
	for u, c := range m.counts {
		if c == 1 {
			delete(m.counts, u)
		} else {
			m.counts[u] = c - 1
		}
	}
}

// Total returns the observed stream length.
func (m *MisraGries) Total() int { return m.n }

// Entries returns the surviving (value, lower-bound count) pairs sorted
// by descending count, ties by ascending value.
func (m *MisraGries) Entries() []HeavyHit {
	out := make([]HeavyHit, 0, len(m.counts))
	for v, c := range m.counts {
		out = append(out, HeavyHit{Value: v, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Value < out[j].Value
	})
	return out
}
