package obs

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// parseExposition is a strict parser for the subset of the text
// exposition format (0.0.4) the registry emits. It validates line
// structure, label quoting, and escape sequences, and returns samples
// as name{label="value",...} → numeric value with escapes decoded.
// Any malformed line fails the test immediately.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("malformed comment line: %q", line)
		}
		name, rest := line, ""
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name, rest = line[:i], line[i:]
		} else {
			t.Fatalf("no value on line %q", line)
		}
		key := name
		if strings.HasPrefix(rest, "{") {
			labels, tail, ok := parseLabels(rest[1:])
			if !ok {
				t.Fatalf("malformed label block on line %q", line)
			}
			key = name + "{" + labels + "}"
			rest = tail
		}
		rest = strings.TrimPrefix(rest, " ")
		v, err := strconv.ParseFloat(strings.TrimSuffix(rest, " "), 64)
		if err != nil {
			t.Fatalf("bad value %q on line %q: %v", rest, line, err)
		}
		samples[key] = v
	}
	return samples
}

// parseLabels consumes `k="v",k2="v2"}` with exposition escaping inside
// the quotes, returning the canonical decoded label string and what
// follows the closing brace.
func parseLabels(s string) (labels, tail string, ok bool) {
	var parts []string
	for {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return "", "", false
		}
		name := s[:eq]
		if name == "" || strings.ContainsAny(name, `{}", `) {
			return "", "", false
		}
		s = s[eq+2:]
		var val strings.Builder
		closed := false
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return "", "", false
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return "", "", false // unknown escape: reject
				}
				i++
				continue
			}
			if c == '\n' {
				return "", "", false // raw newline inside a value
			}
			if c == '"' {
				s = s[i+1:]
				closed = true
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return "", "", false
		}
		parts = append(parts, name+"="+strconv.Quote(val.String()))
		if strings.HasPrefix(s, ",") {
			s = s[1:]
			continue
		}
		if strings.HasPrefix(s, "}") {
			return strings.Join(parts, ","), s[1:], true
		}
		return "", "", false
	}
}

func TestPrometheusHostileLabelValues(t *testing.T) {
	reg := NewRegistry()
	hostile := map[string]string{
		"quote":     `say "hi"`,
		"backslash": `C:\logs\edge`,
		"newline":   "line1\nline2",
		"mixed":     "a\\\"b\nc",
	}
	for k, v := range hostile {
		reg.Counter("hostile_total", "kind", k, "value", v).Add(1)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	// No sample line may contain a raw (unescaped) newline inside a
	// label value — every line must be a complete sample.
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasSuffix(line, " 1") {
			t.Errorf("broken sample line (value torn off by a raw newline?): %q", line)
		}
	}

	// The strict parser must decode every hostile value back verbatim.
	samples := parseExposition(t, out)
	for k, v := range hostile {
		key := fmt.Sprintf(`hostile_total{kind=%q,value=%s}`, k, strconv.Quote(v))
		if got, ok := samples[key]; !ok || got != 1 {
			t.Errorf("hostile label %q: sample %q not found (have %v)", k, key, keys(samples))
		}
	}
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestSummaryConsistentUnderConcurrency scrapes the real exposition
// while writers are recording: every scrape must parse cleanly with
// every quantile present and _count never running backwards; once the
// writers are done the quantiles must not decrease in q and _count and
// _sum must be exact. (Mid-run each quantile is its own pass over
// moving buckets, so only the settled scrape is ordered in q.)
func TestSummaryConsistentUnderConcurrency(t *testing.T) {
	reg := NewRegistry()
	h := reg.HDR("lat_seconds", LatencyHDRConfig())

	const goroutines, observes = 8, 2000
	var start, done sync.WaitGroup
	start.Add(1)
	for g := 0; g < goroutines; g++ {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			for i := 0; i < observes; i++ {
				h.RecordDuration(time.Duration(i%1000) * 200 * time.Microsecond)
			}
		}()
	}
	start.Done()

	scrape := func() (quantiles []float64, samples map[string]float64) {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		samples = parseExposition(t, sb.String())
		for _, q := range HDRQuantiles {
			v, ok := samples[`lat_seconds{quantile=`+strconv.Quote(formatFloat(q))+`}`]
			if !ok {
				t.Fatalf("scrape lacks quantile %g:\n%s", q, sb.String())
			}
			quantiles = append(quantiles, v)
		}
		return quantiles, samples
	}
	var lastCount float64
	for n := 0; n < 20; n++ {
		_, samples := scrape()
		if c := samples["lat_seconds_count"]; c < lastCount {
			t.Fatalf("scrape %d: count %v ran backwards from %v", n, c, lastCount)
		} else {
			lastCount = c
		}
	}
	done.Wait()

	quantiles, samples := scrape()
	if !sort.Float64sAreSorted(quantiles) {
		t.Errorf("settled quantiles decrease in q: %v", quantiles)
	}
	if got := samples["lat_seconds_count"]; got != goroutines*observes {
		t.Errorf("final count = %v, want %d", got, goroutines*observes)
	}
	// 8 × two passes over 0, 0.2 ms, …, 199.8 ms: the sum is exact.
	if got, want := samples["lat_seconds_sum"], float64(goroutines*2)*999*1000/2*200e-6; math.Abs(got-want) > 1e-6 {
		t.Errorf("final sum = %v s, want %v", got, want)
	}
}

func TestPrometheusRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Help("edge_cache_hits_total", `hits; path="cached" only`)
	reg.Counter("edge_cache_hits_total").Add(31)
	reg.Gauge("queue_depth", "stage", "decode").Set(2.5)
	reg.CounterFunc("derived_total", func() int64 { return 9 })
	reg.GaugeFunc("ratio", func() float64 { return 0.75 })

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples := parseExposition(t, b.String())
	want := map[string]float64{
		"edge_cache_hits_total":       31,
		`queue_depth{stage="decode"}`: 2.5,
		"derived_total":               9,
		"ratio":                       0.75,
	}
	for k, v := range want {
		if got, ok := samples[k]; !ok || got != v {
			t.Errorf("sample %q = %v (present %v), want %v", k, got, ok, v)
		}
	}
}
