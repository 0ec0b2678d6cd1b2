package repro

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
)

// Delta is one batch of changes to a single query atom (relation).
// Within a Delta, Delete applies before Append: every existing row
// whose values equal some Delete tuple is removed (all duplicates, on
// values only — weights are not consulted), then the Append rows are
// added in order with their AppendWeights (nil means all-zero weights).
// Multiple Deltas addressing the same atom in one ApplyDelta call apply
// in slice order, each seeing its predecessors' effect.
type Delta struct {
	// Rel names the query atom the batch targets (the relation name
	// passed to Query.Rel).
	Rel string
	// Append rows must match the atom's arity.
	Append []Tuple
	// AppendWeights, when non-nil, must have one weight per Append row;
	// ±Inf are legal, NaN is an error.
	AppendWeights []float64
	// Delete rows must match the atom's arity.
	Delete []Tuple
}

// ApplyDelta advances the handle to a new data epoch reflecting the
// given per-relation append/delete batches. The new epoch is built by
// the function that built the first one (buildState), now with the
// current epoch as its predecessor, and what it redoes is
// decomp.Shape's policy: an acyclic query's atom tree re-runs
// semi-joins, regrouping, and π recomputation only along the paths the
// delta actually reached (clean subtrees alias the old epoch's reduced
// relations outright), and every tree of materialised bags — the
// canonical triangle / 4-cycle / long-cycle shapes and searched GHDs
// alike — is rebuilt whole, a long cycle keeping the plan Compile chose.
// Every ranking function that was already built stays built — its
// patched plan is seeded into the new epoch — so warm callers never see
// a cold prepare after a delta. Results after ApplyDelta are
// bit-identical to a cold Compile on the updated data.
//
// Honors WithContext for the patch work, which, like Compile's, runs on
// GOMAXPROCS workers at or above a size threshold and sequentially
// below it; other run options are ignored. On error nothing changes:
// the handle keeps serving its current epoch. A call whose batches
// change no rows (all deletes miss, no appends) is a no-op and does not
// advance the epoch.
//
// Concurrent Runs are safe: they enumerate either entirely the old or
// entirely the new epoch. ApplyDelta calls serialise with each other.
func (p *Prepared) ApplyDelta(deltas []Delta, opts ...RunOption) error {
	cfg, err := newRunConfig(opts)
	if err != nil {
		return err
	}
	p.deltaMu.Lock()
	defer p.deltaMu.Unlock()
	old := p.state.Load()

	idxOf := make(map[string]int, len(p.srcEdges))
	for i, e := range p.srcEdges {
		idxOf[e.Name] = i
	}
	for _, d := range deltas {
		i, ok := idxOf[d.Rel]
		if !ok {
			return fmt.Errorf("repro: delta targets unknown relation %q", d.Rel)
		}
		arity := len(p.srcEdges[i].Vars)
		for _, t := range d.Append {
			if len(t) != arity {
				return fmt.Errorf("repro: delta append to %s has arity %d, want %d", d.Rel, len(t), arity)
			}
		}
		for _, t := range d.Delete {
			if len(t) != arity {
				return fmt.Errorf("repro: delta delete from %s has arity %d, want %d", d.Rel, len(t), arity)
			}
		}
		if d.AppendWeights != nil && len(d.AppendWeights) != len(d.Append) {
			return fmt.Errorf("repro: delta to %s has %d append rows but %d weights", d.Rel, len(d.Append), len(d.AppendWeights))
		}
		if j := firstNaN(d.AppendWeights); j >= 0 {
			return fmt.Errorf("repro: delta append to %s row %d has a NaN weight", d.Rel, j)
		}
	}

	start := time.Now()
	var deltaSpan *obs.Span
	cfg.ctx, deltaSpan = obs.StartSpan(cfg.ctx, "apply-delta")
	defer deltaSpan.End()
	newRels := append([]*relation.Relation(nil), old.srcRels...)
	changed := make([]bool, len(newRels))
	var appended, deleted int64
	for _, d := range deltas {
		i := idxOf[d.Rel]
		r, del := applyRelDelta(newRels[i], d)
		if del == 0 && len(d.Append) == 0 {
			continue
		}
		newRels[i] = r
		changed[i] = true
		deleted += int64(del)
		appended += int64(len(d.Append))
		deltaSpan.Event("changed:" + d.Rel)
	}
	if !slices.Contains(changed, true) {
		return nil
	}

	st, err := p.buildState(cfg, old, newRels, changed)
	if err != nil {
		return err
	}
	d, was := &st.deltas, old.deltas
	d.DeltasApplied++
	d.DeltaAppendedRows += appended
	d.DeltaDeletedRows += deleted
	d.LastDeltaNs = time.Since(start).Nanoseconds()
	if deltaSpan != nil {
		deltaSpan.SetAttr("epoch", strconv.FormatInt(st.epoch, 10))
		deltaSpan.SetAttr("appended", strconv.FormatInt(appended, 10))
		deltaSpan.SetAttr("deleted", strconv.FormatInt(deleted, 10))
		deltaSpan.SetAttr("bags_rebuilt", strconv.FormatInt(d.DeltaBagsRebuilt-was.DeltaBagsRebuilt, 10))
		deltaSpan.SetAttr("nodes_reused", strconv.FormatInt(d.DeltaNodesReused-was.DeltaNodesReused, 10))
		deltaSpan.SetAttr("nodes_recomputed", strconv.FormatInt(d.DeltaNodesRecomputed-was.DeltaNodesRecomputed, 10))
	}
	p.state.Store(st)
	return nil
}

// applyRelDelta returns r with d applied (deletes, then appends) plus
// the number of rows the deletes removed. r itself is never mutated —
// epochs share relations, so updates must copy — and the Append rows,
// which the caller owns, are copied too.
func applyRelDelta(r *relation.Relation, d Delta) (*relation.Relation, int) {
	app := make([]relation.Tuple, len(d.Append))
	for i, t := range d.Append {
		app[i] = append(Tuple(nil), t...)
	}
	return r.ApplyDelta(d.Delete, app, d.AppendWeights)
}
