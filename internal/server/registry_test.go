package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro"
)

func compileTinyPlan(t testing.TB) func() (*repro.Prepared, error) {
	return func() (*repro.Prepared, error) {
		q := repro.NewQuery().
			Rel("R", []string{"A", "B"}, []repro.Tuple{{1, 2}}, []float64{1}).
			Rel("S", []string{"B", "C"}, []repro.Tuple{{2, 3}}, []float64{2})
		return repro.Compile(q)
	}
}

// regGet drives the registry the way a request does: look the key up,
// then compile unless some caller already did. hit reports that this
// caller found the compile built or in flight.
func regGet(ctx context.Context, reg *registry, key string, build func() (*repro.Prepared, error)) (p *repro.Prepared, hit bool, err error) {
	e := reg.lookup(key, nil, nil, nil)
	ran, err := reg.run(ctx, &e.compile, func() error {
		p, err := build()
		reg.built(e, p, err)
		return err
	})
	if err != nil {
		return nil, !ran, err
	}
	return e.p, !ran, nil
}

// TestRegistrySingleflight is the cold-burst half of the acceptance
// criterion: N concurrent requests for one cold key run exactly one
// compile and, on top of it, exactly one warm-up per ranking; everyone
// else joins them.
func TestRegistrySingleflight(t *testing.T) {
	reg := newRegistry(16)
	var builds, warmups, compileRuns, warmRuns atomic.Int64
	build := func() (*repro.Prepared, error) {
		builds.Add(1)
		return compileTinyPlan(t)()
	}
	const n = 64
	var wg sync.WaitGroup
	plans := make([]*repro.Prepared, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, hit, err := regGet(context.Background(), reg, "k1", build)
			if err != nil {
				t.Error(err)
			}
			if !hit {
				compileRuns.Add(1)
			}
			e := reg.lookup("k1", nil, nil, nil)
			ran, err := reg.run(context.Background(), &e.warm[0], func() error {
				warmups.Add(1)
				return nil
			})
			if err != nil {
				t.Error(err)
			}
			if ran {
				warmRuns.Add(1)
			}
			plans[i] = p
		}(i)
	}
	wg.Wait()
	if builds.Load() != 1 || warmups.Load() != 1 {
		t.Fatalf("%d compiles and %d warm-ups for one key under %d concurrent requests, want 1 and 1", builds.Load(), warmups.Load(), n)
	}
	if compileRuns.Load() != 1 || warmRuns.Load() != 1 {
		t.Fatalf("%d callers report running the compile, %d the warm-up; want 1 and 1 (the one miss)", compileRuns.Load(), warmRuns.Load())
	}
	for i := 1; i < n; i++ {
		if plans[i] != plans[0] {
			t.Fatal("concurrent requests received different plan handles")
		}
	}
	if reg.size() != 1 {
		t.Fatalf("size = %d, want one entry for one handle", reg.size())
	}
}

// TestRegistryFailedBuildNotCached: a build error must propagate to the
// caller (and any joiners) but the next request retries fresh — for the
// compile, whose failure drops the entry, and for a ranking's warm-up,
// whose failure only frees that ranking's flight.
func TestRegistryFailedBuildNotCached(t *testing.T) {
	reg := newRegistry(4)
	boom := errors.New("boom")
	if _, _, err := regGet(context.Background(), reg, "k", func() (*repro.Prepared, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if reg.size() != 0 {
		t.Fatal("failed build left a cache entry")
	}
	p, hit, err := regGet(context.Background(), reg, "k", compileTinyPlan(t))
	if err != nil || hit || p == nil {
		t.Fatalf("retry after failed build: p=%v hit=%v err=%v", p, hit, err)
	}
	e := reg.lookup("k", nil, nil, nil)
	if ran, err := reg.run(context.Background(), &e.warm[1], func() error { return boom }); !ran || !errors.Is(err, boom) {
		t.Fatalf("failed warm-up: ran=%v err=%v, want it run and fail", ran, err)
	}
	if ran, err := reg.run(context.Background(), &e.warm[1], func() error { return nil }); !ran || err != nil {
		t.Fatalf("retry after failed warm-up: ran=%v err=%v, want a fresh run", ran, err)
	}
	if ran, _ := reg.run(context.Background(), &e.warm[1], nil); ran {
		t.Fatal("built warm-up ran again")
	}
}

// TestRegistryLRUEviction: capacity bounds resident plans, dropping the
// least recently used.
func TestRegistryLRUEviction(t *testing.T) {
	reg := newRegistry(2)
	for i := 0; i < 3; i++ {
		if _, _, err := regGet(context.Background(), reg, fmt.Sprintf("k%d", i), compileTinyPlan(t)); err != nil {
			t.Fatal(err)
		}
	}
	if reg.size() != 2 {
		t.Fatalf("size = %d, want 2", reg.size())
	}
	if reg.evicted.Load() != 1 {
		t.Fatalf("evictions = %d, want 1", reg.evicted.Load())
	}
	// k0 was evicted; k1 and k2 must still be warm.
	for _, k := range []string{"k1", "k2"} {
		if _, hit, _ := regGet(context.Background(), reg, k, compileTinyPlan(t)); !hit {
			t.Fatalf("%s evicted, want resident", k)
		}
	}
	if _, hit, _ := regGet(context.Background(), reg, "k0", compileTinyPlan(t)); hit {
		t.Fatal("k0 resident, want evicted")
	}
}

// TestRegistryLRURecency: touching an entry protects it from eviction.
func TestRegistryLRURecency(t *testing.T) {
	reg := newRegistry(2)
	for _, k := range []string{"a", "b"} {
		if _, _, err := regGet(context.Background(), reg, k, compileTinyPlan(t)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" is now least recently used.
	regGet(context.Background(), reg, "a", compileTinyPlan(t))
	regGet(context.Background(), reg, "c", compileTinyPlan(t))
	if _, hit, _ := regGet(context.Background(), reg, "a", compileTinyPlan(t)); !hit {
		t.Fatal("recently used entry was evicted")
	}
	if _, hit, _ := regGet(context.Background(), reg, "b", compileTinyPlan(t)); hit {
		t.Fatal("least recently used entry survived eviction")
	}
}

// TestRegistryJoinerCancel: a joiner whose context dies while a build is
// in flight unblocks with the context error; the build itself finishes
// and serves later requests.
func TestRegistryJoinerCancel(t *testing.T) {
	reg := newRegistry(4)
	gate := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		regGet(context.Background(), reg, "k", func() (*repro.Prepared, error) {
			close(gate) // build is in flight
			<-release
			return compileTinyPlan(t)()
		})
	}()
	<-gate
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := regGet(ctx, reg, "k", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("joiner err = %v, want context.Canceled", err)
	}
	close(release)
	<-done
	if _, hit, err := regGet(context.Background(), reg, "k", nil); !hit || err != nil {
		t.Fatalf("after build: hit=%v err=%v, want warm hit", hit, err)
	}
}
