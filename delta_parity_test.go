package repro

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/workload"
)

// The delta/rebuild parity harness: seeded random queries
// (workload.RandomCQ spans acyclic trees, pure cycles, and chorded
// cycles, so all three plan kinds — join tree, canonical cycle, GHD —
// are exercised) receive random append/delete batches through
// Prepared.ApplyDelta, and after every batch the handle must be
// indistinguishable from a cold Compile on the updated data: top-k
// enumeration bit-identical (same tuples, same weights, same order —
// uniform random weights make the ranking tie-free, so any correct
// plan enumerates the one total order), Count equal, and fixed-seed
// Sample draws identical. Both the pre-warmed path (artefacts built
// before the deltas, patched incrementally and seeded into the new
// epoch) and the lazy path (artefacts first built after the deltas)
// are covered.

// dataMirror tracks what each relation's data should look like after
// the applied deltas — the reference the cold handle compiles from.
type dataMirror struct {
	tuples  []Tuple
	weights []float64
}

// apply mirrors ApplyDelta's per-atom semantics: deletes first (every
// row matching a deleted value tuple goes, duplicates included), then
// appends in order.
func (m *dataMirror) apply(d Delta) {
	if len(d.Delete) > 0 {
		kill := make(map[string]bool, len(d.Delete))
		for _, t := range d.Delete {
			kill[fmt.Sprint(t)] = true
		}
		var ts []Tuple
		var ws []float64
		for i, t := range m.tuples {
			if kill[fmt.Sprint(t)] {
				continue
			}
			ts = append(ts, t)
			ws = append(ws, m.weights[i])
		}
		m.tuples, m.weights = ts, ws
	}
	for i, t := range d.Append {
		m.tuples = append(m.tuples, append(Tuple(nil), t...))
		m.weights = append(m.weights, d.AppendWeights[i])
	}
}

// randomBatch builds one delta batch against the current mirrors:
// every relation independently may receive appends (fresh random rows
// in the data's domain with fresh random weights), deletes of existing
// rows, and occasionally a delete that matches nothing.
func randomBatch(rng *rand.Rand, inst *workload.Instance, mirrors []*dataMirror, domain int) []Delta {
	var batch []Delta
	for i, e := range inst.H.Edges {
		if rng.Intn(3) == 0 { // leave this relation alone
			continue
		}
		d := Delta{Rel: e.Name}
		for n := rng.Intn(4); n > 0; n-- {
			t := make(Tuple, len(e.Vars))
			for c := range t {
				t[c] = Value(rng.Intn(domain))
			}
			d.Append = append(d.Append, t)
			d.AppendWeights = append(d.AppendWeights, rng.Float64())
		}
		for n := rng.Intn(3); n > 0 && len(mirrors[i].tuples) > 0; n-- {
			d.Delete = append(d.Delete, mirrors[i].tuples[rng.Intn(len(mirrors[i].tuples))])
		}
		if rng.Intn(4) == 0 { // a miss: deleting an absent row is a no-op
			t := make(Tuple, len(e.Vars))
			for c := range t {
				t[c] = Value(domain + rng.Intn(5))
			}
			d.Delete = append(d.Delete, t)
		}
		if len(d.Append) > 0 || len(d.Delete) > 0 {
			batch = append(batch, d)
		}
	}
	return batch
}

// mirrorQuery builds the reference query from the mirrored data.
func mirrorQuery(inst *workload.Instance, mirrors []*dataMirror) *Query {
	q := NewQuery()
	for i, e := range inst.H.Edges {
		q.Rel(e.Name, e.Vars, mirrors[i].tuples, mirrors[i].weights)
	}
	return q
}

func assertBitIdentical(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: delta handle returned %d results, cold compile %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Weight != want[i].Weight {
			t.Fatalf("%s result %d: delta weight %v, cold %v", label, i, got[i].Weight, want[i].Weight)
		}
		if len(got[i].Tuple) != len(want[i].Tuple) {
			t.Fatalf("%s result %d: delta arity %d, cold %d", label, i, len(got[i].Tuple), len(want[i].Tuple))
		}
		for c := range want[i].Tuple {
			if got[i].Tuple[c] != want[i].Tuple[c] {
				t.Fatalf("%s result %d: delta tuple %v, cold %v", label, i, got[i].Tuple, want[i].Tuple)
			}
		}
	}
}

// deltaParityCase runs `rounds` random delta batches on one instance
// and cross-checks the handle against a cold compile after every one.
func deltaParityCase(t *testing.T, inst *workload.Instance, seed int64, rounds int, warm bool) {
	t.Helper()
	domain := 8
	mirrors := make([]*dataMirror, len(inst.Rels))
	for i, r := range inst.Rels {
		m := &dataMirror{}
		for j, tup := range r.Tuples {
			m.tuples = append(m.tuples, append(Tuple(nil), tup...))
			m.weights = append(m.weights, r.Weights[j])
		}
		mirrors[i] = m
	}
	// Both handles plan with the initial data's cost model: a cold
	// Compile would re-search the GHD from its own statistics, and a
	// different — equally correct — bag structure accumulates the
	// floating-point weights in a different order, breaking exact
	// bit-identity in the last ulp. One pinned model pins one plan
	// structure on both sides; delta correctness under each side's own
	// statistics is TestDeltaCostBasedParity's, within a tolerance.
	pin := withCostModel(catalog.NewCostModel(inst.H.Edges, inst.Rels, nil))
	p, err := Compile(mirrorQuery(inst, mirrors), pin)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if warm {
		// Build every aggregate's artefacts up front so ApplyDelta takes
		// the incremental patch path and seeds them into the new epoch.
		for _, a := range parityAggregates {
			if _, err := p.TopK(1, WithRanking(a.agg)); err != nil {
				t.Fatalf("warm %s: %v", a.name, err)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < rounds; round++ {
		batch := randomBatch(rng, inst, mirrors, domain)
		if err := p.ApplyDelta(batch); err != nil {
			t.Fatalf("round %d ApplyDelta: %v", round, err)
		}
		for i := range batch {
			mirrors[edgeIndex(inst, batch[i].Rel)].apply(batch[i])
		}
		cold, err := Compile(mirrorQuery(inst, mirrors), pin)
		if err != nil {
			t.Fatalf("round %d cold compile: %v", round, err)
		}
		for _, a := range parityAggregates {
			label := fmt.Sprintf("round %d %s", round, a.name)
			got, err := p.TopK(0, WithRanking(a.agg))
			if err != nil {
				t.Fatalf("%s delta run: %v", label, err)
			}
			want, err := cold.TopK(0, WithRanking(a.agg))
			if err != nil {
				t.Fatalf("%s cold run: %v", label, err)
			}
			assertBitIdentical(t, label, got, want)

			gn, err := p.Count(WithRanking(a.agg))
			if err != nil {
				t.Fatalf("%s delta count: %v", label, err)
			}
			wn, err := cold.Count(WithRanking(a.agg))
			if err != nil {
				t.Fatalf("%s cold count: %v", label, err)
			}
			if gn != wn {
				t.Fatalf("%s: delta count %d, cold %d", label, gn, wn)
			}
		}
		// Fixed-seed sampling over the new epoch equals a cold handle's:
		// each epoch rebuilds its sampler from the updated relations.
		gs, gerr := p.Sample(4, WithSeed(uint64(seed)+uint64(round)))
		ws, werr := cold.Sample(4, WithSeed(uint64(seed)+uint64(round)))
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("round %d sample: delta err %v, cold err %v", round, gerr, werr)
		}
		assertBitIdentical(t, fmt.Sprintf("round %d sample", round), gs, ws)
	}
	if got := p.PlanStats(); got.Epoch != p.Epoch() {
		t.Fatalf("PlanStats epoch %d, Epoch() %d", got.Epoch, p.Epoch())
	}
}

func edgeIndex(inst *workload.Instance, name string) int {
	for i, e := range inst.H.Edges {
		if e.Name == name {
			return i
		}
	}
	panic("unknown relation " + name)
}

// TestDeltaRebuildParity is the main corpus: warm handles (the
// incremental patch path). Seeds 0..15 at nRels=6 cover all five plan
// kinds — acyclic, triangle, four-cycle, longer cycle, and GHD.
func TestDeltaRebuildParity(t *testing.T) {
	for seed := 0; seed < 16; seed++ {
		inst := workload.RandomCQ(6, 20, 8, 0, workload.UniformWeights(), uint64(seed))
		t.Run(fmt.Sprintf("seed=%d/rels=%d", seed, len(inst.H.Edges)), func(t *testing.T) {
			deltaParityCase(t, inst, int64(seed)*101+7, 3, true)
		})
	}
}

// TestDeltaRebuildParityLazy builds no artefacts before the deltas: the
// first Run after ApplyDelta compiles against the patched epoch state.
func TestDeltaRebuildParityLazy(t *testing.T) {
	for seed := 0; seed < 9; seed++ {
		inst := workload.RandomCQ(6, 20, 8, 0, workload.UniformWeights(), uint64(seed))
		t.Run(fmt.Sprintf("seed=%d/rels=%d", seed, len(inst.H.Edges)), func(t *testing.T) {
			deltaParityCase(t, inst, int64(seed)*313+11, 2, false)
		})
	}
}

// TestDeltaCostBasedParity covers the cost-based GHD delta path (the
// incremental rebuild with a statistics-chosen decomposition and
// variable orders). The delta handle keeps its compile-time
// decomposition while a cold handle re-searches from fresh statistics,
// so the two may legally differ in plan structure; results are matched
// as a (tuple, weight) multiset with floating-point tolerance, the way
// the brute-force corpus does.
func TestDeltaCostBasedParity(t *testing.T) {
	for _, seed := range []int{5, 6, 14, 15} { // ghd shapes at nRels=6
		inst := workload.RandomCQ(6, 20, 8, 0, workload.UniformWeights(), uint64(seed))
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			mirrors := make([]*dataMirror, len(inst.Rels))
			for i, r := range inst.Rels {
				m := &dataMirror{}
				for j, tup := range r.Tuples {
					m.tuples = append(m.tuples, append(Tuple(nil), tup...))
					m.weights = append(m.weights, r.Weights[j])
				}
				mirrors[i] = m
			}
			p, err := Compile(mirrorQuery(inst, mirrors))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.TopK(1); err != nil { // warm SumCost
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(seed)*977 + 3))
			for round := 0; round < 2; round++ {
				batch := randomBatch(rng, inst, mirrors, 8)
				if err := p.ApplyDelta(batch); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				for i := range batch {
					mirrors[edgeIndex(inst, batch[i].Rel)].apply(batch[i])
				}
				cold, err := Compile(mirrorQuery(inst, mirrors))
				if err != nil {
					t.Fatal(err)
				}
				got, err := p.TopK(0)
				if err != nil {
					t.Fatal(err)
				}
				want, err := cold.TopK(0)
				if err != nil {
					t.Fatal(err)
				}
				gg, ww := engineGroups(got), engineGroups(want)
				if len(gg) != len(ww) {
					t.Fatalf("round %d: delta produced %d distinct tuples, cold %d", round, len(gg), len(ww))
				}
				for key, wvals := range ww {
					gvals, ok := gg[key]
					if !ok || len(gvals) != len(wvals) {
						t.Fatalf("round %d tuple %s: delta multiplicity %d, cold %d", round, key, len(gvals), len(wvals))
					}
					for i := range wvals {
						if diff := gvals[i] - wvals[i]; diff > 1e-9 || diff < -1e-9 {
							t.Fatalf("round %d tuple %s weight %d: delta %v, cold %v", round, key, i, gvals[i], wvals[i])
						}
					}
				}
			}
		})
	}
}

// TestDeltaValidation pins ApplyDelta's error and no-op contracts: bad
// batches reject without touching the handle, and a batch that changes
// no rows does not advance the epoch.
func TestDeltaValidation(t *testing.T) {
	inst := workload.RandomCQ(3, 10, 6, 0, workload.UniformWeights(), 1)
	p, err := Compile(mirrorQuery(inst, func() []*dataMirror {
		ms := make([]*dataMirror, len(inst.Rels))
		for i, r := range inst.Rels {
			ms[i] = &dataMirror{tuples: r.Tuples, weights: r.Weights}
		}
		return ms
	}()))
	if err != nil {
		t.Fatal(err)
	}
	name := inst.H.Edges[0].Name
	arity := len(inst.H.Edges[0].Vars)
	if err := p.ApplyDelta([]Delta{{Rel: "nope", Append: []Tuple{make(Tuple, 2)}}}); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if err := p.ApplyDelta([]Delta{{Rel: name, Append: []Tuple{make(Tuple, arity+1)}}}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if err := p.ApplyDelta([]Delta{{Rel: name, Append: []Tuple{make(Tuple, arity)}, AppendWeights: []float64{1, 2}}}); err == nil {
		t.Fatal("weight length mismatch accepted")
	}
	if got := p.Epoch(); got != 1 {
		t.Fatalf("failed deltas advanced epoch to %d", got)
	}
	miss := make(Tuple, arity)
	for c := range miss {
		miss[c] = 999
	}
	if err := p.ApplyDelta([]Delta{{Rel: name, Delete: []Tuple{miss}}}); err != nil {
		t.Fatal(err)
	}
	if got := p.Epoch(); got != 1 {
		t.Fatalf("no-op delta advanced epoch to %d", got)
	}
	if err := p.ApplyDelta([]Delta{{Rel: name, Append: []Tuple{make(Tuple, arity)}}}); err != nil {
		t.Fatal(err)
	}
	if got := p.Epoch(); got != 2 {
		t.Fatalf("effective delta left epoch at %d", got)
	}
	st := p.PlanStats()
	if st.DeltasApplied != 1 || st.DeltaAppendedRows != 1 {
		t.Fatalf("delta counters = %+v", st)
	}
}
