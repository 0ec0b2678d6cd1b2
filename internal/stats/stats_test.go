package stats

import (
	"strings"
	"testing"
	"time"
)

func TestDelayRecorderMetrics(t *testing.T) {
	d := NewDelayRecorder()
	d.marks = []time.Duration{10 * time.Millisecond, 30 * time.Millisecond, 100 * time.Millisecond}
	if d.TTF() != 10*time.Millisecond {
		t.Errorf("TTF = %v", d.TTF())
	}
	if d.TTK(2) != 30*time.Millisecond {
		t.Errorf("TTK(2) = %v", d.TTK(2))
	}
	if d.TTL() != 100*time.Millisecond {
		t.Errorf("TTL = %v", d.TTL())
	}
	if d.MaxDelay() != 70*time.Millisecond {
		t.Errorf("MaxDelay = %v, want 70ms", d.MaxDelay())
	}
}

func TestDelayRecorderEmpty(t *testing.T) {
	d := NewDelayRecorder()
	if d.TTF() != 0 || d.TTL() != 0 || d.MaxDelay() != 0 {
		t.Error("empty recorder metrics should be zero")
	}
	if d.TTK(0) != 0 || d.TTK(5) != 0 {
		t.Error("out-of-range TTK should be zero")
	}
}

func TestDelayRecorderMark(t *testing.T) {
	d := NewDelayRecorder()
	d.Mark()
	d.Mark()
	if len(d.marks) != 2 {
		t.Fatalf("%d marks, want 2", len(d.marks))
	}
	if d.TTK(2) < d.TTK(1) {
		t.Error("marks must be non-decreasing")
	}
}

func TestTimer(t *testing.T) {
	timer := StartTimer()
	if timer.Elapsed() < 0 {
		t.Error("elapsed must be non-negative")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "algo", "n", "time")
	tb.Add("Lazy", 1000, 1500*time.Microsecond)
	tb.Add("Batch", 1000, 2*time.Second)
	s := tb.String()
	if !strings.Contains(s, "== demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(s, "Lazy") || !strings.Contains(s, "Batch") {
		t.Error("missing rows")
	}
	if !strings.Contains(s, "1.50ms") {
		t.Errorf("duration formatting: %s", s)
	}
	if !strings.Contains(s, "2.000s") {
		t.Errorf("seconds formatting: %s", s)
	}
	// Columns aligned: header line and separator have same width.
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) < 4 {
		t.Fatalf("table too short:\n%s", s)
	}
	if len(lines[1]) != len(lines[2]) && len(lines[2]) == 0 {
		t.Error("separator misaligned")
	}
}

func TestFormatCellVariants(t *testing.T) {
	if got := formatCell(0.123456789); got != "0.1235" {
		t.Errorf("float fmt = %q", got)
	}
	if got := formatCell(time.Duration(0)); got != "-" {
		t.Errorf("zero duration = %q", got)
	}
	if got := formatCell(500 * time.Nanosecond); got != "500ns" {
		t.Errorf("ns fmt = %q", got)
	}
	if got := formatCell(12500 * time.Nanosecond); got != "12.5µs" {
		t.Errorf("µs fmt = %q", got)
	}
	if got := formatCell("x"); got != "x" {
		t.Errorf("string fmt = %q", got)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("demo", "a", "b")
	tb.Add("x", 1)
	tb.Add("needs,quote", 2)
	csv := tb.CSV()
	want := "a,b\nx,1\n\"needs,quote\",2\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}

func TestTableCSVEscapesQuotes(t *testing.T) {
	tb := NewTable("", "v")
	tb.Add(`say "hi"`)
	if got := tb.CSV(); got != "v\n\"say \"\"hi\"\"\"\n" {
		t.Fatalf("CSV = %q", got)
	}
}
