// Package stats provides the measurement utilities the experiment
// harness uses: wall-clock timers, per-result delay recorders for the
// any-k metrics (time-to-first, time-to-k-th, time-to-last, maximum
// delay), and plain-text result tables.
//
// It measures experiment *runs*. Statistics about the *data* —
// per-column distinct counts, heavy hitters, and the cost model the
// planner consumes — live in internal/catalog.
package stats

import (
	"fmt"
	"strings"
	"time"
)

// Timer measures elapsed wall-clock time.
type Timer struct{ start time.Time }

// StartTimer returns a running timer.
func StartTimer() Timer { return Timer{start: time.Now()} }

// Elapsed reports the time since the timer started.
func (t Timer) Elapsed() time.Duration { return time.Since(t.start) }

// DelayRecorder captures the timestamp of every emitted result relative
// to a start point. It backs the TTF/TTK/TTL metrics of Part 3.
type DelayRecorder struct {
	start time.Time
	marks []time.Duration
}

// NewDelayRecorder starts recording now.
func NewDelayRecorder() *DelayRecorder {
	return &DelayRecorder{start: time.Now()}
}

// Mark records that one result was emitted.
func (d *DelayRecorder) Mark() {
	d.marks = append(d.marks, time.Since(d.start))
}

// TTF is the time to the first result (0 if none).
func (d *DelayRecorder) TTF() time.Duration { return d.TTK(1) }

// TTK is the time to the k-th result (0 if fewer than k results).
func (d *DelayRecorder) TTK(k int) time.Duration {
	if k <= 0 || k > len(d.marks) {
		return 0
	}
	return d.marks[k-1]
}

// TTL is the time to the last result (0 if none).
func (d *DelayRecorder) TTL() time.Duration { return d.TTK(len(d.marks)) }

// MaxDelay is the largest gap between consecutive results (including the
// gap from start to the first result).
func (d *DelayRecorder) MaxDelay() time.Duration {
	var max, prev time.Duration
	for _, m := range d.marks {
		if gap := m - prev; gap > max {
			max = gap
		}
		prev = m
	}
	return max
}

// Table is a simple aligned text table for experiment output.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Add appends a row; cells are formatted with %v (durations and floats
// get compact forms).
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = formatCell(c)
	}
	t.Rows = append(t.Rows, row)
}

func formatCell(c interface{}) string {
	switch v := c.(type) {
	case time.Duration:
		return formatDuration(v)
	case float64:
		return fmt.Sprintf("%.4g", v)
	default:
		return fmt.Sprintf("%v", v)
	}
}

func formatDuration(d time.Duration) string {
	switch {
	case d == 0:
		return "-"
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (header + rows),
// suitable for piping into plotting tools.
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.Headers)
	for _, row := range t.Rows {
		writeCSVRow(&b, row)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			b.WriteByte('"')
			b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
			b.WriteByte('"')
		} else {
			b.WriteString(c)
		}
	}
	b.WriteByte('\n')
}
