package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro"
	"repro/internal/relation"
)

// datasetPatch is the JSON body of PATCH /v1/datasets/{name}: rows to
// delete (matched by value, all duplicates removed) and rows to append,
// in that order. Cells follow the dataset upload rules (integral
// numbers or strings).
type datasetPatch struct {
	Append        []json.RawMessage `json:"append"`
	AppendWeights []float64         `json:"append_weights"`
	Delete        []json.RawMessage `json:"delete"`
}

// handleDatasetPatch is the incremental-update endpoint: it installs a
// new immutable snapshot of the dataset (bumped version) built from the
// current one by removing the deleted rows and adding the appended
// ones, and patches every compiled plan in the registry that binds the
// dataset in place via Prepared.ApplyDelta, moving the warm registry
// entries to the new version so they keep serving with zero
// preparation. The server keeps no statistics of its own: a plan
// compiled later collects them from the snapshot it binds to.
//
// Bodies are JSON (datasetPatch) or CSV (Content-Type text/csv) with
// ?mode=append (default; columns follow the upload rules, including
// the trailing weight column unless ?weights=false) or ?mode=delete
// (value columns only by default — deletes match values, not weights).
func (s *Server) handleDatasetPatch(w http.ResponseWriter, r *http.Request) {
	s.met.queryRequests.Inc()
	name := r.PathValue("name")
	if !nameRe.MatchString(name) {
		httpError(w, http.StatusBadRequest, errInvalidArgument, "invalid dataset name %q", name)
		return
	}
	s.mu.RLock()
	old := s.datasets[name]
	s.mu.RUnlock()
	if old == nil {
		httpError(w, http.StatusNotFound, errNotFound, "unknown dataset %q", name)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	appendT, appendW, deleteT, err := s.readPatch(old, r)
	if err != nil {
		httpError(w, http.StatusBadRequest, errInvalidArgument, "dataset %s: %v", name, err)
		return
	}
	if len(appendT) == 0 && len(deleteT) == 0 {
		httpError(w, http.StatusBadRequest, errInvalidArgument, "dataset %s: empty delta (nothing to append or delete)", name)
		return
	}

	// The new snapshot's rows, by the function that patches the handles
	// (Prepared.ApplyDelta), so the two cannot drift. The old slices are
	// never mutated — snapshots are immutable.
	snap := &relation.Relation{Name: name, Attrs: old.attrs, Tuples: old.tuples, Weights: old.weights}
	next, removed := snap.ApplyDelta(deleteT, appendT, appendW)
	if removed == 0 && len(appendT) == 0 {
		// Every delete missed: the data is unchanged, so the snapshot,
		// its version, and every compiled plan stay exactly as they are.
		writeJSON(w, map[string]any{
			"name": name, "rows": len(old.tuples), "arity": old.arity, "version": old.version,
			"appended": 0, "deleted": 0, "epoch": old.epoch, "plans_patched": 0,
		})
		return
	}

	ds := &dataset{
		name: name, version: old.version + 1, arity: old.arity, attrs: old.attrs,
		tuples: next.Tuples, weights: next.Weights, epoch: old.epoch + 1,
	}
	// Patch first, publish second (registry invariant 4): while the
	// handles advance, readers still resolve the old version and find
	// their entry under its old key; the dataset and the patched entries
	// then move to the new version in one critical section.
	s.writeMu.Lock()
	s.mu.RLock()
	cur := s.datasets[name]
	s.mu.RUnlock()
	if cur != old {
		s.writeMu.Unlock()
		httpError(w, http.StatusConflict, errConflict, "dataset %s was updated concurrently; retry the delta against the new version", name)
		return
	}
	patched := s.patchPlans(r.Context(), name, deleteT, appendT, appendW)
	s.mu.Lock()
	s.datasets[name] = ds
	s.reg.advance(name, ds.version, patched)
	s.mu.Unlock()
	s.writeMu.Unlock()
	s.met.patches.Inc()
	s.met.plansPatched.Add(int64(len(patched)))
	writeJSON(w, map[string]any{
		"name": name, "rows": len(ds.tuples), "arity": ds.arity, "version": ds.version,
		"appended": len(appendT), "deleted": removed, "epoch": ds.epoch,
		"plans_patched": len(patched),
	})
}

// readPatch parses a PATCH body (JSON or CSV) against the dataset's
// arity, returning appends (with weights — zero-filled when omitted)
// and deletes.
func (s *Server) readPatch(ds *dataset, r *http.Request) (appendT []relation.Tuple, appendW []float64, deleteT []relation.Tuple, err error) {
	if strings.HasPrefix(r.Header.Get("Content-Type"), "text/csv") {
		mode := r.URL.Query().Get("mode")
		if mode == "" {
			mode = "append"
		}
		// Append rows carry a trailing weight column by default (like
		// uploads); delete rows are value-only by default — deletes match
		// values, never weights.
		weightCol := mode == "append"
		if v := r.URL.Query().Get("weights"); v != "" {
			b, perr := strconv.ParseBool(v)
			if perr != nil {
				return nil, nil, nil, fmt.Errorf("bad weights param %q", v)
			}
			weightCol = b
		}
		local := relation.NewDictionary()
		rel, rerr := relation.ReadCSV(r.Body, ds.name, weightCol, local)
		if rerr != nil {
			return nil, nil, nil, rerr
		}
		if len(rel.Attrs) != ds.arity {
			return nil, nil, nil, fmt.Errorf("delta arity %d, want %d", len(rel.Attrs), ds.arity)
		}
		s.mergeDict(local, rel.Tuples)
		switch mode {
		case "append":
			return rel.Tuples, rel.Weights, nil, nil
		case "delete":
			return nil, nil, rel.Tuples, nil
		default:
			return nil, nil, nil, fmt.Errorf("bad mode %q (append or delete)", mode)
		}
	}
	var body datasetPatch
	dec := json.NewDecoder(r.Body)
	dec.UseNumber()
	if err := dec.Decode(&body); err != nil {
		return nil, nil, nil, err
	}
	if body.AppendWeights != nil && len(body.AppendWeights) != len(body.Append) {
		return nil, nil, nil, fmt.Errorf("%d append rows but %d weights", len(body.Append), len(body.AppendWeights))
	}
	local := relation.NewDictionary()
	appendT, _, err = parseJSONTuples(body.Append, ds.arity, local)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("append: %v", err)
	}
	deleteT, _, err = parseJSONTuples(body.Delete, ds.arity, local)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("delete: %v", err)
	}
	s.mergeDict(local, appendT)
	s.mergeDict(local, deleteT)
	appendW = body.AppendWeights
	if appendW == nil {
		appendW = make([]float64, len(appendT))
	}
	return appendT, appendW, deleteT, nil
}

// patchPlans advances every resident handle that binds dataset name by
// one delta: the handle's prepared state moves one epoch forward via
// ApplyDelta (incremental plan patching) while it keeps serving — a
// concurrent read enumerates either epoch, atomically. Returns the
// entries patched; a handle that fails to patch is left out, so the
// registry drops it and the next request compiles cold against the new
// snapshot. Runs under the server's lifetime (like plan builds) but
// keeps the PATCH request's trace, so the per-plan apply-delta spans
// land in it.
func (s *Server) patchPlans(ctx context.Context, name string, deleteT, appendT []relation.Tuple, appendW []float64) []*planEntry {
	var patched []*planEntry
	for _, e := range s.reg.bound(name) {
		var deltas []repro.Delta
		for i, a := range e.qd.atoms {
			if a.Dataset == name {
				deltas = append(deltas, repro.Delta{
					Rel:           fmt.Sprintf("%s#%d", a.Dataset, i),
					Append:        appendT,
					AppendWeights: appendW,
					Delete:        deleteT,
				})
			}
		}
		bctx, cancel := s.detached(ctx)
		err := e.p.ApplyDelta(deltas, repro.WithContext(bctx))
		cancel()
		if err == nil {
			patched = append(patched, e)
		}
	}
	return patched
}
