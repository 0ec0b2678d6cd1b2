package obs

import (
	"math"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "Requests.")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name + labels returns the same instance.
	if c2 := r.Counter("reqs_total", "Requests."); c2 != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("inflight", "In-flight.")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestLabeledSeriesAreDistinct(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("hits_total", "Hits.", L("endpoint", "topk"))
	b := r.Counter("hits_total", "Hits.", L("endpoint", "sample"))
	if a == b {
		t.Fatal("different label values shared a series")
	}
	a.Add(2)
	b.Add(3)
	if a.Value() != 2 || b.Value() != 3 {
		t.Fatalf("label isolation broken: %d, %d", a.Value(), b.Value())
	}
}

func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "X.")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x_total as gauge did not panic")
		}
	}()
	r.Gauge("x_total", "X.")
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 2, 3} {
		h.Observe(v)
	}
	// Cumulative: le=0.01 -> 2 (0.005, 0.01 inclusive), le=0.1 -> 3,
	// le=1 -> 4, +Inf -> 6.
	want := []int64{2, 3, 4, 6}
	got := h.Snapshot()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if math.Abs(h.Sum()-5.565) > 1e-9 {
		t.Fatalf("sum = %g, want 5.565", h.Sum())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(DefDurationBuckets)
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i%100) / 1000)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	cum := h.Snapshot()
	if cum[len(cum)-1] != workers*per {
		t.Fatalf("+Inf bucket = %d, want %d", cum[len(cum)-1], workers*per)
	}
}

// expositionLine matches one sample line of the Prometheus text format.
var expositionLine = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.e+-]+|\+Inf|-Inf|NaN)$`)

// labelPair matches one k="v" pair inside a label set.
var labelPair = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$`)

// parseExposition validates every line of a text-format payload and
// returns sample values keyed by full series name (with labels).
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	typeOf := map[string]string{}
	var lastHelp, lastType string
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			lastHelp = name
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			parts := strings.Fields(rest)
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			name, typ := parts[0], parts[1]
			if name != lastHelp {
				t.Fatalf("line %d: TYPE for %s does not follow its HELP (last HELP %s)", ln+1, name, lastHelp)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: invalid TYPE %q", ln+1, typ)
			}
			if _, dup := typeOf[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			typeOf[name] = typ
			lastType = name
		case line == "":
			t.Fatalf("line %d: blank line in exposition", ln+1)
		default:
			m := expositionLine.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed sample: %q", ln+1, line)
			}
			name, labels, valStr := m[1], m[2], m[3]
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
				"_bucket"), "_sum"), "_count")
			if typeOf[base] == "" && typeOf[name] == "" {
				t.Fatalf("line %d: sample %s before its TYPE", ln+1, name)
			}
			if base != lastType && name != lastType {
				t.Fatalf("line %d: sample %s outside its family block (%s)", ln+1, name, lastType)
			}
			if labels != "" {
				inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
				for _, pair := range splitLabelPairs(inner) {
					if !labelPair.MatchString(pair) {
						t.Fatalf("line %d: malformed label pair %q", ln+1, pair)
					}
				}
			}
			var v float64
			switch valStr {
			case "+Inf":
				v = math.Inf(1)
			case "-Inf":
				v = math.Inf(-1)
			case "NaN":
				v = math.NaN()
			default:
				var err error
				v, err = strconv.ParseFloat(valStr, 64)
				if err != nil {
					t.Fatalf("line %d: bad value %q: %v", ln+1, valStr, err)
				}
			}
			samples[name+labels] = v
		}
	}
	return samples
}

// splitLabelPairs splits `a="b",c="d"` on commas outside quotes.
func splitLabelPairs(s string) []string {
	var out []string
	var cur strings.Builder
	inQuote, escaped := false, false
	for _, r := range s {
		switch {
		case escaped:
			escaped = false
			cur.WriteRune(r)
		case r == '\\':
			escaped = true
			cur.WriteRune(r)
		case r == '"':
			inQuote = !inQuote
			cur.WriteRune(r)
		case r == ',' && !inQuote:
			out = append(out, cur.String())
			cur.Reset()
		default:
			cur.WriteRune(r)
		}
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

func TestWritePrometheusConformance(t *testing.T) {
	r := NewRegistry()
	r.Counter("anykd_requests_total", "Total requests.", L("endpoint", "topk")).Add(3)
	r.Counter("anykd_requests_total", "Total requests.", L("endpoint", "sample")).Add(1)
	r.Gauge("anykd_inflight", "In-flight requests.").Set(2)
	h := r.Histogram("anykd_ttf_seconds", "Time to first result.",
		[]float64{0.001, 0.01, 0.1}, L("agg", "sum"))
	h.Observe(0.0005)
	h.Observe(0.05)
	r.GaugeFunc("go_goroutines", "Goroutines.", func() float64 { return 12 })
	r.CounterFunc("derived_total", "Derived.", func() float64 { return 99 })
	// A label value that needs escaping.
	r.Counter("esc_total", `Help with \ backslash and
newline.`, L("q", `pa"th\n`)).Inc()
	RegisterRuntime(r)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples := parseExposition(t, sb.String())

	checks := map[string]float64{
		`anykd_requests_total{endpoint="topk"}`:          3,
		`anykd_requests_total{endpoint="sample"}`:        1,
		`anykd_inflight`:                                 2,
		`anykd_ttf_seconds_bucket{agg="sum",le="0.001"}`: 1,
		`anykd_ttf_seconds_bucket{agg="sum",le="0.01"}`:  1,
		`anykd_ttf_seconds_bucket{agg="sum",le="0.1"}`:   2,
		`anykd_ttf_seconds_bucket{agg="sum",le="+Inf"}`:  2,
		`anykd_ttf_seconds_count{agg="sum"}`:             2,
		`go_goroutines`:                                  12,
		`derived_total`:                                  99,
	}
	for k, want := range checks {
		got, ok := samples[k]
		if !ok {
			t.Errorf("missing series %s\nfull output:\n%s", k, sb.String())
			continue
		}
		if got != want {
			t.Errorf("%s = %g, want %g", k, got, want)
		}
	}
	if v := samples[`anykd_ttf_seconds_sum{agg="sum"}`]; math.Abs(v-0.0505) > 1e-9 {
		t.Errorf("histogram sum = %g, want 0.0505", v)
	}
	// Runtime series present.
	for _, name := range []string{"go_heap_alloc_bytes", "go_gc_cycles_total", "go_gc_pause_seconds_total"} {
		if _, ok := samples[name]; !ok {
			t.Errorf("missing runtime series %s", name)
		}
	}
}

func TestWritePrometheusDeterministicOrder(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		r.Counter("b_total", "B.").Inc()
		r.Counter("a_total", "A.", L("x", "1")).Inc()
		r.Counter("a_total", "A.", L("x", "2")).Inc()
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	first := build()
	for i := 0; i < 5; i++ {
		if got := build(); got != first {
			t.Fatalf("non-deterministic output:\n%s\nvs\n%s", first, got)
		}
	}
	// Registration order preserved: b before a.
	if strings.Index(first, "b_total") > strings.Index(first, "a_total") {
		t.Fatalf("families not in registration order:\n%s", first)
	}
}

func TestCounterRace(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("race_total", "Race.")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	// Scrape concurrently with the increments.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		0:           "0",
		1.5:         "1.5",
		math.Inf(1): "+Inf",
	}
	for v, want := range cases {
		if got := formatValue(v); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", v, got, want)
		}
	}
	if got := formatValue(math.NaN()); got != "NaN" {
		t.Errorf("formatValue(NaN) = %q", got)
	}
}
