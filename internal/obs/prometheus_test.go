package obs

import (
	"strings"
	"testing"
)

func scrape(t *testing.T, reg *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

func TestPrometheusCounterAndGauge(t *testing.T) {
	reg := NewRegistry()
	reg.Help("requests_total", "Total requests.")
	reg.Counter("requests_total", "method", "get").Add(3)
	reg.Gauge("temp").Set(1.5)
	out := scrape(t, reg)
	for _, want := range []string{
		"# HELP requests_total Total requests.\n",
		"# TYPE requests_total counter\n",
		`requests_total{method="get"} 3` + "\n",
		"# TYPE temp gauge\n",
		"temp 1.5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestPrometheusLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m_total", "path", "a\\b\"c\nd").Inc()
	out := scrape(t, reg)
	want := `m_total{path="a\\b\"c\nd"} 1` + "\n"
	if !strings.Contains(out, want) {
		t.Errorf("escaped sample missing; want %q in:\n%s", want, out)
	}
}

func TestPrometheusFuncsAndOrdering(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("zz_total", func() int64 { return 9 })
	reg.GaugeFunc("aa_bytes", func() float64 { return 2048 })
	reg.Counter("mm_total", "server", "b").Inc()
	reg.Counter("mm_total", "server", "a").Inc()
	out := scrape(t, reg)
	// Families sorted by name; series within a family sorted by labels.
	iAA := strings.Index(out, "aa_bytes 2048")
	iMMa := strings.Index(out, `mm_total{server="a"} 1`)
	iMMb := strings.Index(out, `mm_total{server="b"} 1`)
	iZZ := strings.Index(out, "zz_total 9")
	if iAA < 0 || iMMa < 0 || iMMb < 0 || iZZ < 0 {
		t.Fatalf("missing samples in:\n%s", out)
	}
	if !(iAA < iMMa && iMMa < iMMb && iMMb < iZZ) {
		t.Errorf("output not sorted:\n%s", out)
	}
}
