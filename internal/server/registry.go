package server

import (
	"container/list"
	"context"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro"
	"repro/internal/ranking"
)

// registry is the server's one plan cache: a singleflight LRU keyed by
// dataKey with one entry per *repro.Prepared. The entry owns everything
// the server knows about its handle — the query it was compiled from,
// the dataset versions it currently reflects, and the build flights
// that decide who compiles it and who warms each ranking on it — while
// the per-ranking artefacts themselves live only in the handle (its
// per-epoch onceCache). What holds:
//
//  1. Every resident handle is reachable under exactly one key, and that
//     key is dataKey(entry.qd, entry.versions): when a delta advances
//     the entry, advance recomputes the key from the entry's own version
//     vector, so two PATCHes on different datasets bound by one handle
//     compose.
//  2. A PATCH sweep (bound, then advance) visits every resident handle;
//     there is no second index a handle could be served from but not
//     patched through. The capacity therefore bounds handles — the
//     things that hold memory — and an LRU eviction removes a handle
//     from serving and from the sweep at once.
//  3. Hit/miss accounting: of the callers wanting one ranking on one
//     entry, the one that runs its warm-up is the miss; everyone who
//     finds it built or joins it in flight is a hit. A new ranking on a
//     resident handle is a miss that reuses the compile. Failed or
//     canceled builds are never cached, a waiter whose own context ends
//     abandons the wait, and builds run detached on the server context
//     (Server.detached).
//  4. A read never misses because a PATCH is in flight: writers patch
//     the bound handles outside every server lock (a Prepared shows
//     readers its old or its new epoch, atomically), then publish the
//     dataset and advance the entries under one Server.mu.Lock; readers
//     resolve versions and look the entry up under one Server.mu.RLock
//     (resolveQuery) and build outside it. Hence every resident entry
//     reflects the current version of every dataset it binds. Lock
//     order: Server.writeMu, Server.mu, registry.mu.
//  5. One mutex, no shards: the critical section is a map lookup and a
//     list splice (~100 ns) against ~1 ms requests capped at
//     MaxInflight, so the lock is idle >99.9 % of the time and hashing
//     the key to pick a shard would cost more than it saves.
type registry struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*planEntry
	lru     *list.List // front = most recently used; values are *planEntry

	hits    atomic.Int64 // ranked lookups served without running a build
	misses  atomic.Int64 // ranked lookups whose caller ran the build
	evicted atomic.Int64
}

// planEntry is one handle's cache entry. Fields are guarded by
// registry.mu, except that p may be read without it once the compile
// flight is done (built writes it once, before the flight's done closes).
type planEntry struct {
	key      string
	elem     *list.Element
	qd       *queryDef  // the registration the handle is compiled from (atom names, delta routing)
	versions []int      // per atom: the dataset version the handle reflects
	snap     []*dataset // per atom: the snapshot to compile from; nil once compiled
	p        *repro.Prepared
	compile  *flight
	warm     [len(ranking.All)]*flight // per ranking, in ranking.All's order: its warm-up on p
}

// flight is one deduplicated build: the caller that finds its slot
// empty runs it, later callers wait on done. A failed flight empties
// its slot again, so the next caller retries.
type flight struct {
	done chan struct{} // closed when the build finished (either way)
	err  error         // valid once done is closed
}

func newRegistry(capacity int) *registry {
	return &registry{cap: max(capacity, 1), entries: make(map[string]*planEntry), lru: list.New()}
}

// lookup returns the entry under key, creating an empty one (nothing
// compiled, no flight started) from qd, snap and versions when absent.
// Server callers hold Server.mu for reading — see invariant 4.
func (r *registry) lookup(key string, qd *queryDef, snap []*dataset, versions []int) *planEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[key]
	if ok {
		r.lru.MoveToFront(e.elem)
		return e
	}
	e = &planEntry{key: key, qd: qd, snap: snap, versions: versions}
	e.elem = r.lru.PushFront(e)
	r.entries[key] = e
	return e
}

// run executes build as the flight in *slot unless one is already
// there, in which case it waits for that one; ran reports which. A
// waiter's own ctx can abandon the wait, but a finished build is
// preferred over a racing cancellation so a warm hit with an expired
// context still returns the plan (the run's own Next then reports the
// cancellation deterministically).
func (r *registry) run(ctx context.Context, slot **flight, build func() error) (ran bool, err error) {
	r.mu.Lock()
	f := *slot
	if f == nil {
		f = &flight{done: make(chan struct{})}
		*slot = f
		r.mu.Unlock()
		if f.err = build(); f.err != nil {
			r.mu.Lock()
			*slot = nil
			r.mu.Unlock()
		}
		close(f.done)
		return true, f.err
	}
	r.mu.Unlock()
	select {
	case <-f.done:
		return false, f.err
	default:
	}
	select {
	case <-f.done:
		return false, f.err
	case <-ctx.Done():
		return false, ctx.Err()
	}
}

// built ends e's compile flight: a failed compile removes the entry, a
// successful one publishes the handle and enforces the LRU bound,
// skipping entries whose compile is in flight (their builder and
// waiters hold them, and dropping them would only duplicate work).
func (r *registry) built(e *planEntry, p *repro.Prepared, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e.snap = nil
	if err != nil {
		r.remove(e)
		return
	}
	e.p = p
	for el := r.lru.Back(); el != nil && len(r.entries) > r.cap; {
		ev := el.Value.(*planEntry)
		el = el.Prev()
		if ev.p != nil || ev.compile == nil {
			r.remove(ev)
			r.evicted.Add(1)
		}
	}
}

// remove drops e from the cache if it is still resident; callers hold
// r.mu. Whoever already holds e keeps using it unaffected.
func (r *registry) remove(e *planEntry) {
	if r.entries[e.key] == e {
		delete(r.entries, e.key)
		r.lru.Remove(e.elem)
	}
}

// bound lists the compiled entries whose query binds dataset name: the
// handles a delta to it must patch.
func (r *registry) bound(name string) []*planEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*planEntry
	for _, e := range r.entries {
		if e.p != nil && e.binds(name) {
			out = append(out, e)
		}
	}
	return out
}

// binds reports whether e's query binds dataset name.
func (e *planEntry) binds(name string) bool {
	return slices.ContainsFunc(e.qd.atoms, func(a atomDef) bool { return a.Dataset == name })
}

// advance records that dataset name is now at version: the patched
// entries (whose handles a delta already brought there) move to the key
// of their new version vector — pointer moves only — and every other
// entry binding name is dropped, since it holds, or is still compiling,
// data no request will ask for again (a re-upload passes no patched
// entries). Callers hold Server.mu for writing.
func (r *registry) advance(name string, version int, patched []*planEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.entries {
		if e.binds(name) && !slices.Contains(patched, e) {
			r.remove(e)
		}
	}
	for _, e := range patched {
		if r.entries[e.key] != e {
			continue // evicted during the sweep
		}
		delete(r.entries, e.key)
		for i, a := range e.qd.atoms {
			if a.Dataset == name {
				e.versions[i] = version
			}
		}
		e.key = dataKey(e.qd, e.versions)
		r.entries[e.key] = e
	}
}

// size reports the number of resident entries.
func (r *registry) size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// regPlan is one resident plan in a registry snapshot.
type regPlan struct {
	Key  string          `json:"key"`
	Plan repro.PlanStats `json:"plan"`
}

// snapshot lists the compiled resident plans sorted by key, for
// /v1/stats. PlanStats walks plan structures, so it runs outside the
// lock and never blocks concurrent lookups.
func (r *registry) snapshot() []regPlan {
	var (
		out   []regPlan
		plans []*repro.Prepared
	)
	r.mu.Lock()
	for key, e := range r.entries {
		if e.p != nil {
			out = append(out, regPlan{Key: key})
			plans = append(plans, e.p)
		}
	}
	r.mu.Unlock()
	for i, p := range plans {
		out[i].Plan = p.PlanStats()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
