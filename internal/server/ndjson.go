package server

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/relation"
)

// The NDJSON row path. A result line is appended into the stream's one
// buffer in exactly the bytes encoding/json writes for
// topkLine{Tuple, Weight}, with no reflection and no per-row value:
// integers by strconv, dictionary strings from the JSON form quoted once
// when their code was assigned (Server.quoted), weights in
// encoding/json's float format.
//
// The buffer goes out — written and flushed — by a fixed rule: the
// first line at once, so time to first result is the engine's; later
// lines once flushBytes are buffered or flushEvery has passed since the
// last flush, checked as each line is appended; the trailer always,
// with whatever precedes it. A warm k=1000 read thus costs a handful of
// socket wake-ups instead of one per line.
const (
	flushBytes = 4 << 10
	flushEvery = time.Millisecond
)

// appendWeight appends w as encoding/json writes a float64: like %g,
// but 'e' only when |w| < 1e-6 or |w| ≥ 1e21, with the exponent
// unpadded. A non-finite weight has no JSON form and is an error.
func appendWeight(b []byte, w float64) ([]byte, error) {
	if math.IsInf(w, 0) || math.IsNaN(w) {
		return b, fmt.Errorf("weight %s has no JSON encoding", strconv.FormatFloat(w, 'g', -1, 64))
	}
	format := byte('f')
	if a := math.Abs(w); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, w, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 → e-7
		b = b[:n-1]
	}
	return b, nil
}

// appendRow appends the result line {"tuple":[…],"weight":W}\n for t
// and w. quoted[i] is the JSON form of dictionary code DictBase+i; any
// other value is written as the integer it is. On error b comes back
// as it was passed in.
func appendRow(b []byte, t relation.Tuple, w float64, quoted [][]byte) ([]byte, error) {
	start := len(b)
	b = append(b, `{"tuple":[`...)
	for i, v := range t {
		if i > 0 {
			b = append(b, ',')
		}
		if v >= relation.DictBase && v-relation.DictBase < relation.Value(len(quoted)) {
			b = append(b, quoted[v-relation.DictBase]...)
		} else {
			b = strconv.AppendInt(b, v, 10)
		}
	}
	b = append(b, `],"weight":`...)
	b, err := appendWeight(b, w)
	if err != nil {
		return b[:start], err
	}
	return append(b, "}\n"...), nil
}

// row appends one result line to the stream and sends the buffer when
// the flush rule says so. It fails for a line with no JSON form (the
// caller then ends the stream with an error trailer) and once a write
// has failed (q.werr: the client is gone).
func (q *queryStream) row(t relation.Tuple, w float64) error {
	// A code past the stream's snapshot of the quoted dictionary fetches
	// a fresh one. Rows only hold codes assigned before their row source
	// was opened, so that is the first string cell of the stream, and
	// integer-only streams never take the lock.
	for _, v := range t {
		if v >= relation.DictBase && v-relation.DictBase >= relation.Value(len(q.quoted)) {
			q.s.dictMu.RLock()
			q.quoted = q.s.quoted
			q.s.dictMu.RUnlock()
			break
		}
	}
	b, err := appendRow(q.buf, t, w, q.quoted)
	if err != nil {
		return fmt.Errorf("result %d: %w", q.count+1, err)
	}
	q.buf = b
	q.count++
	if now := q.s.now(); q.count == 1 || len(q.buf) >= flushBytes || now.Sub(q.flushedAt) >= flushEvery {
		q.send(now)
	}
	return q.werr
}

// end appends the trailer line and sends everything buffered.
func (q *queryStream) end(trailer topkLine) {
	if b, err := json.Marshal(trailer); err == nil {
		q.buf = append(append(q.buf, b...), '\n')
	}
	q.send(q.s.now())
}

// send writes the buffer to the response and flushes it.
func (q *queryStream) send(now time.Time) {
	if q.werr != nil {
		return
	}
	if _, q.werr = q.w.Write(q.buf); q.werr == nil && q.flusher != nil {
		q.flusher.Flush()
	}
	q.buf = q.buf[:0]
	q.flushedAt = now
}
