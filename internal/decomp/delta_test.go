package decomp

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/hypergraph"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/workload"
)

// treeBuildCancelCtx reports Canceled from the moment the prepare's
// trace shows a span named after: "plan-build" appears once every bag
// task has been dispatched and the bag tree's build has begun under the
// prepare's own context, "instantiate" once its π pass has.
type treeBuildCancelCtx struct {
	context.Context
	trace *obs.Trace
	after string
}

func (c *treeBuildCancelCtx) Err() error {
	var has func(spans []*obs.SpanJSON) bool
	has = func(spans []*obs.SpanJSON) bool {
		for _, s := range spans {
			if s.Name == c.after || has(s.Children) {
				return true
			}
		}
		return false
	}
	if has(c.trace.Snapshot().Spans) {
		return context.Canceled
	}
	return nil
}

// TestPrepareCancelsBagTree pins that a prepare stays cancelable past
// its bags: a context that turns Canceled only after the last bag task
// must still fail the prepare, because the bag tree's reduction,
// grouping and π pass run under it too.
func TestPrepareCancelsBagTree(t *testing.T) {
	g := workload.RandomGraph(10, 60, workload.UniformWeights(), 29)
	rels6 := make([]*relation.Relation, 6)
	for i := range rels6 {
		rels6[i] = g.Edges
	}
	edges, rels := graphAtoms(g, ghdShapes["bowtie"])
	d, err := hypergraph.New(edges...).Decompose()
	if err != nil {
		t.Fatal(err)
	}
	for _, after := range []string{"plan-build", "instantiate"} {
		late := func() context.Context {
			ctx, tr := obs.NewTrace(context.Background(), obs.NewID(), time.Now())
			return &treeBuildCancelCtx{Context: ctx, trace: tr, after: after}
		}
		if _, err := PrepareCycleSingleTree(rels6, sum, WithContext(late()), WithWorkers(2)); !errors.Is(err, context.Canceled) {
			t.Errorf("6-cycle prepare canceled at %s: got %v, want context.Canceled", after, err)
		}
		if _, err := PrepareGHDWith(d, edges, rels, sum, WithContext(late()), WithWorkers(2)); !errors.Is(err, context.Canceled) {
			t.Errorf("bowtie GHD prepare canceled at %s: got %v, want context.Canceled", after, err)
		}
	}
}
