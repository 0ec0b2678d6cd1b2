package ranking

// Lexicographic ranking orders results by a sequence of attribute values
// rather than an aggregated weight. The tutorial (Part 3) highlights that
// lexicographic orders are a special case supported by the any-k
// framework: encode the per-stage attribute value into a weight whose
// positional magnitude dominates all later stages. Vector carries the
// exact representation used by tests to validate the encoding.

// LexEncoder packs per-stage integer keys into a single float64 weight so
// that SumCost over encoded weights sorts solutions lexicographically by
// (stage1 key, stage2 key, ...). It supports up to Stages stages with
// keys in [0, Base).
type LexEncoder struct {
	// Base is the exclusive upper bound for keys at every stage.
	Base int64
	// Stages is the number of stages being encoded.
	Stages int
}

// Encode returns the weight contribution of key at the given stage
// (0-based, stage 0 is most significant). Summing contributions across
// stages yields a total order identical to lexicographic order on the
// key vectors, provided every key is in [0, Base) and Base^Stages is
// exactly representable in float64 (Base^Stages < 2^53).
func (e LexEncoder) Encode(stage int, key int64) float64 {
	w := float64(key)
	for s := e.Stages - 1; s > stage; s-- {
		w *= float64(e.Base)
	}
	return w
}
