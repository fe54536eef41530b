package obs

import (
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	c.Add(-5) // ignored: counters are monotonic
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(2.5)
	g.Add(1.5)
	g.Add(-3)
	if got := g.Value(); got != 1 {
		t.Errorf("gauge = %g, want 1", got)
	}
}

func TestGaugeIncDec(t *testing.T) {
	var g Gauge
	g.Inc()
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 1 {
		t.Errorf("gauge after Inc/Inc/Dec = %g, want 1", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "k", "v")
	b := reg.Counter("x_total", "k", "v")
	if a != b {
		t.Error("same name+labels returned distinct counters")
	}
	c := reg.Counter("x_total", "k", "other")
	if a == c {
		t.Error("different labels returned the same counter")
	}
	h1 := reg.HDR("h_seconds", LatencyHDRConfig())
	h2 := reg.HDR("h_seconds", HDRConfig{})
	if h1 != h2 {
		t.Error("HDR get-or-create returned distinct instances")
	}
}

func TestRegistryWithLabels(t *testing.T) {
	reg := NewRegistry()
	child := reg.With("server", "edge-00")
	child.Counter("reqs_total").Add(7)
	// The child shares the parent's storage, under the child's labels.
	if got := reg.Counter("reqs_total", "server", "edge-00").Value(); got != 7 {
		t.Errorf("labeled counter via parent = %d, want 7", got)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m")
	defer func() {
		if recover() == nil {
			t.Error("no panic on kind mismatch")
		}
	}()
	reg.Gauge("m")
}

func TestRegistryDuplicateFuncPanics(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeFunc("g", func() float64 { return 1 })
	defer func() {
		if recover() == nil {
			t.Error("no panic on duplicate GaugeFunc")
		}
	}()
	reg.GaugeFunc("g", func() float64 { return 2 })
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	reg := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("no panic on invalid metric name")
		}
	}()
	reg.Counter("bad-name")
}

// TestConcurrentUse exercises every metric type from many goroutines;
// the -race target in the Makefile relies on this for coverage.
func TestConcurrentUse(t *testing.T) {
	reg := NewRegistry()
	h := reg.HDR("lat_seconds", LatencyHDRConfig())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				reg.Counter("c_total").Inc()
				reg.Gauge("g").Add(1)
				h.RecordDuration(time.Duration(j) * time.Millisecond)
			}
		}(i)
	}
	// Concurrent scrapes while writers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 50; j++ {
			var sink discard
			reg.WritePrometheus(&sink)
		}
	}()
	wg.Wait()
	if got := reg.Counter("c_total").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := reg.Gauge("g").Value(); got != 8000 {
		t.Errorf("gauge = %g, want 8000", got)
	}
	if got := h.Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
