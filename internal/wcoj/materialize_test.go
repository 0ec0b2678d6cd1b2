package wcoj

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/ranking"
	"repro/internal/relation"
)

// crossAtoms returns R(A) × S(B) with side rows each: a join whose
// output (side² rows) dwarfs its input, so output collection is all the
// memory it uses.
func crossAtoms(side int) ([]Atom, []string) {
	r, s := relation.New("R", "A"), relation.New("S", "B")
	for i := 0; i < side; i++ {
		r.AddWeighted(float64(i), relation.Value(i))
		s.AddWeighted(float64(i)/1024, relation.Value(i))
	}
	return []Atom{{Rel: r, Vars: []string{"A"}}, {Rel: s, Vars: []string{"B"}}}, []string{"A", "B"}
}

// cancelAfterPolls is a context that reports Canceled from its
// (after+1)'th Err call on, and counts the calls.
type cancelAfterPolls struct {
	context.Context
	after, polls int
}

func (c *cancelAfterPolls) Err() error {
	c.polls++
	if c.polls > c.after {
		return context.Canceled
	}
	return nil
}

// TestMaterializeSequentialHonoursContext: with one worker the
// materialisation runs on the caller's goroutine and must still stop
// when ctx is done mid-join — decomp hands every bag a one-worker budget
// whenever there are at least as many bags as workers.
func TestMaterializeSequentialHonoursContext(t *testing.T) {
	const side = 320 // 102 400 output rows, about 30 Builder chunks
	atoms, order := crossAtoms(side)
	// The first poll is the entry check, the second the one at the first
	// chunk; the context is done from then on.
	ctx := &cancelAfterPolls{Context: context.Background(), after: 2}
	out, _, err := MaterializeParallelHinted(ctx, atoms, order, ranking.SumCost, 1, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatal("canceled materialisation must not return a partial relation")
	}
	// The poll sits where the output Builder opens a chunk, so the join
	// runs on for at most one chunk after the cancel: one poll sees it
	// and stops the join, one more reports it.
	if after := ctx.polls - ctx.after; after > 2 {
		t.Fatalf("%d polls after ctx was canceled, want the join to stop at the next chunk", after)
	}
}

// TestMaterializeBytesPerRow is the allocation guarantee of bag
// materialisation as a doubling sweep: the bytes allocated per emitted
// row stay under one constant however large the output — the row's
// values and weight in a Builder chunk (arity·8 + 8 B) and its slot of
// the final Weights array (8 B; no tuple header is built), plus a fixed
// slack for the chunk capacity still unfilled when the join ends (under
// one doubling), the copy of the last chunk, the chunk table and the
// driver itself. Growing the arrays by append re-allocates them at every
// 1.25× step, about five times their final size per row.
func TestMaterializeBytesPerRow(t *testing.T) {
	const (
		chunkBytes = 2*8 + 8
		rowArrays  = 8
		slack      = 40
	)
	for _, side := range []int{1 << 6, 1 << 7, 1 << 8} {
		atoms, order := crossAtoms(side)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, instr, err := Materialize(atoms, order, sum)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		n := side * side
		if out.Len() != n || instr.Emits != n {
			t.Fatalf("n=%d: %d rows, %d emits", n, out.Len(), instr.Emits)
		}
		if cap(out.Weights) != n {
			t.Errorf("n=%d: cap(Weights)=%d, want exactly n", n, cap(out.Weights))
		}
		perRow := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
		limit := float64(chunkBytes + rowArrays + slack)
		t.Logf("n=%d: %.1f B allocated per emitted row (limit %.0f)", n, perRow, limit)
		if perRow > limit {
			t.Errorf("n=%d: %.1f B allocated per emitted row, want ≤ %.0f", n, perRow, limit)
		}
	}
}

// TestMaterializeAllocsPerRow pins that collecting a join's output
// allocates no object per result, as a doubling sweep on the sequential
// and the parallel path: emitAtom hands the Builder the driver's own
// assignment, the Builder copies it into a chunk, and the chunks (two
// arrays per ≤ 4 096 rows), the final arrays, the tasks and the driver
// are all a join allocates.
func TestMaterializeAllocsPerRow(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, side := range []int{1 << 7, 1 << 8, 1 << 9} {
			atoms, order := crossAtoms(side)
			var out *relation.Rows
			objs := testing.AllocsPerRun(2, func() {
				var err error
				if out, _, err = MaterializeParallelHinted(context.Background(), atoms, order, sum, workers, nil); err != nil {
					t.Fatal(err)
				}
			})
			n := side * side
			if out.Len() != n {
				t.Fatalf("workers=%d n=%d: %d rows", workers, n, out.Len())
			}
			perRow := objs / float64(n)
			t.Logf("workers=%d n=%d: %.0f objects, %.4f per emitted row", workers, n, objs, perRow)
			if perRow > 0.05 {
				t.Errorf("workers=%d n=%d: %.4f objects per emitted row, want ≤ 0.05", workers, n, perRow)
			}
		}
	}
}

// TestMaterializeChunkBoundariesEverySchedule: the sequential path and
// the parallel one at several worker counts collect the same output —
// same rows (compared through Row), same order, same Instr — when every task's share crosses
// several chunk boundaries of its Builder (64, 192, 448, … rows).
func TestMaterializeChunkBoundariesEverySchedule(t *testing.T) {
	// Each of 6 B values joins 100 A values with 100 C values: 60 000
	// results in 600 equal subtrees, over 2 000 rows per task at
	// 7 workers × chunkFactor and over 4 096 at 2.
	r, s := relation.New("R", "A", "B"), relation.New("S", "B", "C")
	for i := 0; i < 600; i++ {
		r.AddWeighted(float64(i), relation.Value(i), relation.Value(i%6))
		s.AddWeighted(float64(i)/1024, relation.Value(i%6), relation.Value(i))
	}
	atoms := []Atom{{Rel: r, Vars: r.Attrs}, {Rel: s, Vars: s.Attrs}}
	order := []string{"A", "B", "C"}
	want, wantInstr, err := Materialize(atoms, order, sum)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() != 60000 {
		t.Fatalf("fixture emits %d rows, want 60000", want.Len())
	}
	for _, workers := range []int{1, 2, 4, 7} {
		got, gotInstr, err := MaterializeParallelHinted(context.Background(), atoms, order, sum, workers, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		assertSameRows(t, fmt.Sprintf("workers=%d", workers), got, want)
		if *gotInstr != *wantInstr {
			t.Errorf("workers=%d: Instr = %+v, want %+v", workers, *gotInstr, *wantInstr)
		}
		if cap(got.Weights) != got.Len() {
			t.Errorf("workers=%d: cap(Weights) = %d for %d rows", workers, cap(got.Weights), got.Len())
		}
	}
}
