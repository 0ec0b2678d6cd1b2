package main

import (
	"context"
	"fmt"
	"time"

	"repro"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/dp"
	"repro/internal/hypergraph"
	"repro/internal/parallel"
	"repro/internal/ranking"
	"repro/internal/relation"
	"repro/internal/wcoj"
	"repro/internal/yannakakis"
)

// The layer replay does from this package what repro.Compile and
// Prepared.Run do inside the facade, one public call per layer, each
// inside a span:
//
//	acyclic: relation (ingest) → catalog.NewCostModel → hypergraph →
//	         yannakakis.NewQuery → dp.NewPlan → Plan.NumSolutions →
//	         Plan.Instantiate → core.New → Next
//	cyclic:  relation (ingest) → catalog.NewCostModel → hypergraph
//	         (DecomposeCosted for generic shapes) → decomp.Prepare* →
//	         Plan.Run → Next
//
// It must be kept in step with prepared.go by hand; repro.layer_coverage
// (replay time over facade time on the same fixtures) says when it has
// drifted.

// parallelThreshold mirrors the facade's prepareParallelThreshold: at
// or above this many tuples an unset parallelism means GOMAXPROCS.
const parallelThreshold = 8192

func prepareWorkers(tuples int) int {
	if tuples >= parallelThreshold {
		return parallel.Degree(0)
	}
	return 1
}

var sumCost ranking.Aggregate = repro.SumCost

// layered is a plan built layer by layer.
type layered struct {
	f    *fixture
	rels []*relation.Relation
	cm   *catalog.CostModel
	// acyclic
	yq   *yannakakis.Query
	plan *dp.Plan
	tdp  *dp.TDP
	// cyclic
	dec   *hypergraph.Decomposition
	dplan *decomp.Plan
}

// ingest copies the fixture's tuples into fresh relations exactly as
// Query.Rel does.
func ingest(f *fixture) []*relation.Relation {
	rels := make([]*relation.Relation, len(f.rels))
	for i, src := range f.rels {
		r := relation.New(src.Name, f.edges[i].Vars...)
		for j, t := range src.Tuples {
			r.AddTuple(t, src.Weights[j])
		}
		rels[i] = r
	}
	return rels
}

func triangleAtoms(rels []*relation.Relation) []wcoj.Atom {
	return []wcoj.Atom{
		{Rel: rels[0], Vars: []string{"A", "B"}},
		{Rel: rels[1], Vars: []string{"B", "C"}},
		{Rel: rels[2], Vars: []string{"C", "A"}},
	}
}

// buildLayered prepares f layer by layer under tr. With hidden set, a
// layer that runs inside another layer's public call is also timed
// stand-alone on the same inputs (outside every span) and that time is
// moved from the outer span to the inner layer — an approximation that
// in-program spans would make exact.
func buildLayered(ctx context.Context, tr *tracer, f *fixture, hidden bool) (*layered, error) {
	l := &layered{f: f}
	var err error
	n := f.name + "/"
	tr.in("relation", n+"relation.ingest", func() { l.rels = ingest(f) })
	tr.in("catalog", n+"catalog.NewCostModel", func() {
		l.cm = catalog.NewCostModel(f.edges, l.rels, nil)
		l.cm.EstimateOutput()
	})
	var h *hypergraph.Hypergraph
	acyclic := false
	tr.in("hypergraph", n+"hypergraph.IsAcyclic", func() {
		h = hypergraph.New(f.edges...)
		acyclic = h.IsAcyclic()
	})
	tuples := f.tuples()
	workers := prepareWorkers(tuples)
	if acyclic {
		tr.in("yannakakis", n+"yannakakis.NewQuery", func() { l.yq, err = yannakakis.NewQuery(h, l.rels) })
		if err != nil {
			return nil, err
		}
		tr.in("dp", n+"dp.NewPlan", func() { l.plan, err = dp.NewPlan(l.yq, dp.WithWorkers(workers), dp.WithContext(ctx)) })
		if err != nil {
			return nil, err
		}
		if hidden && tr != nil {
			id := tr.last()
			t0 := time.Now()
			if _, err := l.yq.ReduceKeep(ctx, workers); err != nil {
				return nil, err
			}
			tr.move(id, "yannakakis", n+"yannakakis.ReduceKeep", time.Since(t0))
		}
		// Compile also counts the join's results off the reduced plan.
		tr.in("dp", n+"dp.NumSolutions", func() { l.plan.NumSolutions() })
		tr.in("dp", n+"dp.Instantiate", func() {
			l.tdp, err = l.plan.Instantiate(sumCost, dp.WithContext(ctx), dp.WithWorkers(prepareWorkers(l.plan.TotalTuples())))
		})
		return l, err
	}

	opts := []decomp.PrepareOption{decomp.WithWorkers(workers), decomp.WithContext(ctx), decomp.WithSkewHints(l.cm.HeavyValues)}
	switch {
	case f.cycle == 3:
		tr.in("decomp", n+"decomp.Prepare", func() {
			l.dplan, err = decomp.PrepareTriangle([3]*relation.Relation(l.rels), sumCost, opts...)
		})
		if err == nil && hidden && tr != nil {
			id := tr.last()
			t0 := time.Now()
			if _, _, err := wcoj.MaterializeParallelHinted(ctx, triangleAtoms(l.rels), decomp.TriangleAttrs, sumCost, workers, l.cm.HeavyValues); err != nil {
				return nil, err
			}
			tr.move(id, "wcoj", n+"wcoj.MaterializeParallelHinted", time.Since(t0))
		}
	case f.cycle == 4:
		tr.in("decomp", n+"decomp.Prepare", func() {
			l.dplan, err = decomp.PrepareFourCycleSubmodular([4]*relation.Relation(l.rels), sumCost, opts...)
		})
	case f.cycle > 4:
		tr.in("decomp", n+"decomp.Prepare", func() { l.dplan, err = decomp.PrepareCycleSingleTree(l.rels, sumCost, opts...) })
	default:
		tr.in("hypergraph", n+"hypergraph.DecomposeCosted", func() { l.dec, err = h.DecomposeCosted(l.cm) })
		if err != nil {
			return nil, err
		}
		opts = append(opts, decomp.WithOrderChooser(catalog.ChooseOrder))
		tr.in("decomp", n+"decomp.Prepare", func() { l.dplan, err = decomp.PrepareGHDWith(l.dec, f.edges, l.rels, sumCost, opts...) })
	}
	return l, err
}

// start begins one ranked enumeration over the layered plan, as
// Prepared.Run does: the default variant, limited to k when k > 0.
func (l *layered) start(ctx context.Context, v core.Variant, k int) (core.Iterator, error) {
	var it core.Iterator
	var err error
	if l.tdp != nil {
		it, err = core.New(ctx, l.tdp, v)
	} else {
		it, err = l.dplan.Run(ctx, v)
	}
	if err != nil {
		return nil, err
	}
	if k > 0 {
		it = core.Limit(it, k)
	}
	return it, nil
}

// enumerate runs and drains one enumeration inside a core span and
// checks it against the oracle.
func (l *layered) enumerate(ctx context.Context, tr *tracer, o *oracle, out *output, k int, buf []float64) (stamps, []float64) {
	var s stamps
	tr.in("core", l.f.name+"/core.enumerate", func() {
		t0 := time.Now()
		it, err := l.start(ctx, core.Lazy, k)
		if err != nil {
			out.fail(fmt.Errorf("%s: %w", l.f.name, err))
			return
		}
		s, buf, err = drain(it, t0, buf)
		out.op(checkRun(o, aggSum, s, buf, k, err), "replay "+l.f.name)
	})
	return s, buf
}
