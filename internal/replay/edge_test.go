package replay

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/edge"
	"repro/internal/logfmt"
	"repro/internal/resilience"
	"repro/internal/serve"
)

// newTestEdge builds a small caching edge backed by the synthetic JSON
// origin, shared by the integration tests.
func newTestEdge() *edge.HTTPEdge {
	return serve.Build(serve.Parts{
		Origin: &edge.JSONOrigin{Articles: 20},
		Cache:  edge.NewCache(8<<20, time.Minute, 2),
		Bare:   true,
	}).Edge
}

// slowOrigin wraps an Origin and sleeps inside a scripted window,
// modeling an origin that browns out by slowing down rather than only
// erroring.
type slowOrigin struct {
	inner    edge.Origin
	from, to time.Time
	delay    time.Duration
}

func (o *slowOrigin) Fetch(path string) ([]byte, string, bool, error) {
	now := time.Now()
	if !now.Before(o.from) && now.Before(o.to) {
		time.Sleep(o.delay)
	}
	return o.inner.Fetch(path)
}

// TestReplayAgainstFaultyEdge drives the open-loop harness against an
// HTTPEdge whose origin browns out for a scripted window: half the
// in-window fetches fail fast (ErrInjected -> 503), the other half
// crawl through a slow origin. The HDR tail and the error counts must
// both reflect the window.
func TestReplayAgainstFaultyEdge(t *testing.T) {
	start := time.Now()
	winFrom := start.Add(150 * time.Millisecond)
	winTo := start.Add(450 * time.Millisecond)

	slow := &slowOrigin{
		inner: &edge.JSONOrigin{Articles: 20},
		from:  winFrom, to: winTo,
		delay: 120 * time.Millisecond,
	}
	st := serve.Build(serve.Parts{
		Origin:    slow,
		Cache:     edge.NewCache(8<<20, time.Minute, 2),
		Bare:      true,
		FaultSeed: 3,
	})
	st.Faulty.Brownouts = []resilience.Window{{From: winFrom, To: winTo, ErrorRate: 0.5}}
	srv := httptest.NewServer(st.Edge)
	defer srv.Close()

	// Uncacheable profile paths guarantee every request reaches the
	// origin while the window is open (JSONOrigin serves /profile/*
	// uncacheable).
	records := []logfmt.Record{
		recAt(0, "GET", "/profile/a", "NewsApp/3.1 (iPhone)"),
		recAt(time.Millisecond, "GET", "/profile/b", "NewsApp/3.1 (iPhone)"),
	}
	res, err := Run(context.Background(), records, Config{
		Target: srv.URL, Rate: 300, Duration: 700 * time.Millisecond, Concurrency: 8,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Error accounting: the 300 ms half-rate outage should produce
	// roughly 0.5 * 300/s * 0.3s = 45 injected 503s; allow wide slack
	// for scheduler jitter but reject an empty or saturated count.
	got503 := res.Status[503]
	if got503 < 10 || got503 > 120 {
		t.Errorf("503s = %d, want ~45 from the brownout window (status: %v)", got503, res.Status)
	}
	if res.Status[200] == 0 {
		t.Error("no successful responses outside the window")
	}
	if res.Errors != 0 {
		t.Errorf("transport errors = %d; brownout must surface as HTTP 503, not transport failure", res.Errors)
	}

	// Tail accounting: the slow half of the window (120 ms origin
	// stalls plus the queueing behind them) must dominate the
	// intended-start tail, while the median stays fast.
	p50 := res.Latency.QuantileDuration(0.50)
	p99 := res.Latency.QuantileDuration(0.99)
	t.Logf("brownout run: %d sent, %d x 503, p50=%v p99=%v max=%v",
		res.Sent, got503, p50, p99, time.Duration(res.Latency.Max()))
	if p99 < 100*time.Millisecond {
		t.Errorf("p99 = %v, want >= 100ms: the brownout window must show in the tail", p99)
	}
	if p99 < 4*p50 {
		t.Errorf("p99 %v not >> p50 %v: tail does not reflect the window", p99, p50)
	}

	// Per-status HDR breakdown exists for both classes.
	if res.StatusLatency[503] == nil || res.StatusLatency[503].Count() != got503 {
		t.Errorf("per-status 503 histogram inconsistent: %v", res.StatusLatency)
	}
}
