package ranking

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// normalise maps arbitrary float64s into a safe positive range so that
// product stays monotone and finite.
func normalise(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 1
	}
	return 0.5 + math.Abs(math.Mod(x, 100)) // in [0.5, 100.5)
}

func TestIdentityLaw(t *testing.T) {
	for _, agg := range All {
		agg := agg
		f := func(x float64) bool {
			v := normalise(x)
			return agg.Combine(v, agg.Identity()) == v &&
				agg.Combine(agg.Identity(), v) == v
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: identity law: %v", agg.Name(), err)
		}
	}
}

func TestCommutativity(t *testing.T) {
	for _, agg := range All {
		agg := agg
		f := func(x, y float64) bool {
			a, b := normalise(x), normalise(y)
			return agg.Combine(a, b) == agg.Combine(b, a)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: commutativity: %v", agg.Name(), err)
		}
	}
}

func TestAssociativityUpToULP(t *testing.T) {
	for _, agg := range All {
		agg := agg
		f := func(x, y, z float64) bool {
			a, b, c := normalise(x), normalise(y), normalise(z)
			l := agg.Combine(agg.Combine(a, b), c)
			r := agg.Combine(a, agg.Combine(b, c))
			if l == r {
				return true
			}
			// Float addition/multiplication are associative only up to
			// rounding; accept a tiny relative error.
			return math.Abs(l-r) <= 1e-9*math.Max(math.Abs(l), math.Abs(r))
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: associativity: %v", agg.Name(), err)
		}
	}
}

// Monotonicity: if a is better than b then combining both with the same c
// never makes a worse than b.
func TestMonotonicity(t *testing.T) {
	for _, agg := range All {
		agg := agg
		f := func(x, y, z float64) bool {
			a, b, c := normalise(x), normalise(y), normalise(z)
			if !agg.Less(a, b) {
				a, b = b, a
			}
			if !agg.Less(a, b) { // equal after swap
				return true
			}
			return !agg.Less(agg.Combine(b, c), agg.Combine(a, c))
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: monotonicity: %v", agg.Name(), err)
		}
	}
}

func TestLessIsStrictTotalOrder(t *testing.T) {
	for _, agg := range All {
		agg := agg
		f := func(x, y float64) bool {
			a, b := normalise(x), normalise(y)
			// Irreflexive and asymmetric; connected when unequal.
			if agg.Less(a, a) {
				return false
			}
			if agg.Less(a, b) && agg.Less(b, a) {
				return false
			}
			if a != b && !agg.Less(a, b) && !agg.Less(b, a) {
				return false
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: order laws: %v", agg.Name(), err)
		}
	}
}

func TestSumCostSemantics(t *testing.T) {
	agg := SumCost
	if got := agg.Combine(1.5, 2.5); got != 4.0 {
		t.Errorf("Combine = %v, want 4.0", got)
	}
	if !agg.Less(1, 2) || agg.Less(2, 1) {
		t.Error("Less should be ascending for SumCost")
	}
}

func TestSumBenefitSemantics(t *testing.T) {
	agg := SumBenefit
	if !agg.Less(5, 2) {
		t.Error("SumBenefit should rank larger sums earlier")
	}
}

func TestMaxCostSemantics(t *testing.T) {
	agg := MaxCost
	if got := agg.Combine(3, 7); got != 7 {
		t.Errorf("Combine = %v, want 7", got)
	}
	if got := agg.Combine(agg.Identity(), 5); got != 5 {
		t.Errorf("Combine with identity = %v, want 5", got)
	}
}

func TestMinBenefitSemantics(t *testing.T) {
	agg := MinBenefit
	if got := agg.Combine(3, 7); got != 3 {
		t.Errorf("Combine = %v, want 3", got)
	}
	if !agg.Less(5, 2) {
		t.Error("MinBenefit should rank larger minima earlier")
	}
}

func TestProductCostSemantics(t *testing.T) {
	agg := ProductCost
	if got := agg.Combine(2, 3); got != 6 {
		t.Errorf("Combine = %v, want 6", got)
	}
	if got := agg.Combine(agg.Identity(), 9); got != 9 {
		t.Errorf("identity combine = %v, want 9", got)
	}
}

func TestZeroValueIsSumCost(t *testing.T) {
	var zero Aggregate
	if zero != SumCost || zero.Name() != "sum" {
		t.Fatalf("zero Aggregate is %q, want SumCost", zero.Name())
	}
}

func TestParse(t *testing.T) {
	want := []string{"sum", "sum-desc", "max", "min-desc", "product"}
	for i, a := range All {
		if a.Name() != want[i] {
			t.Errorf("All[%d] is %q, want %q", i, a.Name(), want[i])
		}
		if got, err := Parse(a.Name()); err != nil || got != a {
			t.Errorf("Parse(%q) = %q, %v", a.Name(), got.Name(), err)
		}
	}
	_, err := Parse("median")
	if err == nil || !strings.Contains(err.Error(), `"median"`) {
		t.Fatalf("Parse(median) = %v, want an error naming it", err)
	}
	for _, name := range want {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("Parse error %q does not list %q", err, name)
		}
	}
}

// TestCombineSignedZero pins the branch forms of the max and min
// combines: on equal arguments they return the second, so a +0 and a −0
// combine to the sign of the later one (math.Max would always give +0).
// The sign reaches the output: encoding/json prints −0 as -0.
func TestCombineSignedZero(t *testing.T) {
	pos, neg := 0.0, math.Copysign(0, -1)
	for _, agg := range []Aggregate{MaxCost, MinBenefit} {
		if got := agg.Combine(pos, neg); !math.Signbit(got) {
			t.Errorf("%s: Combine(+0, -0) = +0, want -0", agg.Name())
		}
		if got := agg.Combine(neg, pos); math.Signbit(got) {
			t.Errorf("%s: Combine(-0, +0) = -0, want +0", agg.Name())
		}
	}
	if got := SumBenefit.Combine(1, -1); math.Signbit(got) {
		t.Errorf("sum-desc: 1 + -1 = -0, want +0")
	}
}

func TestCheckDomain(t *testing.T) {
	inf := math.Inf(1)
	rels := []string{"R", "S", "T"}
	cases := []struct {
		name    string
		weights [][]float64
		// sum is the error of SumCost and SumBenefit, product that of
		// ProductCost ("" for none). MaxCost and MinBenefit take all.
		sum, product string
	}{
		{"finite", [][]float64{{1, 2}, {3}, {4}}, "", ""},
		{"one sign", [][]float64{{1, inf}, {inf}, {2}}, "", ""},
		{"both in one atom", [][]float64{{inf, -inf}, {1}, {2}}, "",
			"relation R row 1 has weight -Inf"},
		{"opposite atoms", [][]float64{{inf, 5}, {1, -inf}, {2}},
			"relation S row 1 has weight -Inf and relation R row 0 has weight +Inf",
			"relation S row 1 has weight -Inf"},
		{"both then one", [][]float64{{-inf, inf}, {3}, {4, inf}},
			"relation T row 1 has weight +Inf and relation R row 0 has weight -Inf",
			"relation R row 0 has weight -Inf"},
	}
	for _, tc := range cases {
		for _, agg := range All {
			var want string
			switch {
			case (agg == SumCost || agg == SumBenefit) && tc.sum != "":
				want = "ranking " + agg.Name() + " cannot add +Inf and -Inf: " + tc.sum
			case agg == ProductCost && tc.product != "":
				want = "ranking product needs positive weights: " + tc.product
			}
			err := agg.CheckDomain(rels, tc.weights)
			if (err == nil) != (want == "") || err != nil && err.Error() != want {
				t.Errorf("%s/%s: %v, want %q", tc.name, agg.Name(), err, want)
			}
		}
	}
	err := ProductCost.CheckDomain(rels, [][]float64{{1}, {2, 0}, {3}})
	if de, ok := err.(*DomainError); !ok || de.Rel != "S" || de.Row != 1 || de.Weight != 0 {
		t.Fatalf("product over a zero: %v", err)
	}
}

func TestLexEncoderOrdersLexicographically(t *testing.T) {
	enc := LexEncoder{Base: 100, Stages: 3}
	type vec [3]int64
	vecs := []vec{
		{0, 0, 0}, {0, 0, 99}, {0, 1, 0}, {1, 0, 0}, {1, 0, 1},
		{5, 99, 99}, {6, 0, 0}, {99, 99, 99}, {2, 50, 3}, {2, 50, 4},
	}
	weight := func(v vec) float64 {
		var w float64
		for s := 0; s < 3; s++ {
			w += enc.Encode(s, v[s])
		}
		return w
	}
	byWeight := append([]vec(nil), vecs...)
	sort.Slice(byWeight, func(i, j int) bool { return weight(byWeight[i]) < weight(byWeight[j]) })
	byLex := append([]vec(nil), vecs...)
	sort.Slice(byLex, func(i, j int) bool {
		a, b := byLex[i], byLex[j]
		for s := 0; s < 3; s++ {
			if a[s] != b[s] {
				return a[s] < b[s]
			}
		}
		return false
	})
	for i := range byWeight {
		if byWeight[i] != byLex[i] {
			t.Fatalf("rank %d: weight order %v != lex order %v", i, byWeight[i], byLex[i])
		}
	}
}

// Property: lex encoding preserves order for random in-range vectors.
func TestLexEncoderProperty(t *testing.T) {
	enc := LexEncoder{Base: 1000, Stages: 4}
	f := func(a0, a1, a2, a3, b0, b1, b2, b3 uint16) bool {
		av := [4]int64{int64(a0) % 1000, int64(a1) % 1000, int64(a2) % 1000, int64(a3) % 1000}
		bv := [4]int64{int64(b0) % 1000, int64(b1) % 1000, int64(b2) % 1000, int64(b3) % 1000}
		var aw, bw float64
		for s := 0; s < 4; s++ {
			aw += enc.Encode(s, av[s])
			bw += enc.Encode(s, bv[s])
		}
		lexLess := false
		lexEq := true
		for s := 0; s < 4; s++ {
			if av[s] != bv[s] {
				lexLess = av[s] < bv[s]
				lexEq = false
				break
			}
		}
		if lexEq {
			return aw == bw
		}
		return lexLess == (aw < bw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
