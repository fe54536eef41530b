package replay

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/logfmt"
	"repro/internal/obs"
)

var t0 = time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC)

func recAt(offset time.Duration, method, path, ua string) logfmt.Record {
	return logfmt.Record{
		Time: t0.Add(offset), ClientID: 1, Method: method,
		URL: "https://orig.example.com" + path, UserAgent: ua,
		MIMEType: "application/json", Status: 200, Bytes: 10,
		Cache: logfmt.CacheHit,
	}
}

func TestRunReplaysAllRecords(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{}
	uas := map[string]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.Method+" "+r.URL.String()]++
		uas[r.UserAgent()]++
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()

	records := []logfmt.Record{
		recAt(0, "GET", "/v1/stories?page=1", "NewsApp/3.1 (iPhone)"),
		recAt(10*time.Millisecond, "POST", "/ingest/m", "HomeCam/1.9"),
		recAt(20*time.Millisecond, "GET", "/v1/article/1001", "NewsApp/3.1 (iPhone)"),
	}
	res, err := Run(context.Background(), records, Config{Target: srv.URL, Speed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 3 || res.Errors != 0 || res.Offered != 3 {
		t.Fatalf("result = %+v", res)
	}
	if res.Status[200] != 3 {
		t.Errorf("status = %v", res.Status)
	}
	if res.Latency.Count() != 3 || res.Service.Count() != 3 {
		t.Errorf("latency samples = %d/%d", res.Latency.Count(), res.Service.Count())
	}
	// The Content-Type parameter is stripped and the type lowercased.
	if res.MIME["application/json"] != 3 {
		t.Errorf("mime counts = %v", res.MIME)
	}
	if res.StatusLatency[200] == nil || res.StatusLatency[200].Count() != 3 {
		t.Errorf("per-status histogram missing: %v", res.StatusLatency)
	}
	mu.Lock()
	defer mu.Unlock()
	if seen["GET /v1/stories?page=1"] != 1 || seen["POST /ingest/m"] != 1 {
		t.Errorf("paths seen: %v", seen)
	}
	if uas["NewsApp/3.1 (iPhone)"] != 2 {
		t.Errorf("user agents: %v", uas)
	}
}

func TestRunSpeedCompressesTiming(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(200)
	}))
	defer srv.Close()
	// 2 s of recorded spacing at 100x should replay in ~20 ms.
	records := []logfmt.Record{
		recAt(0, "GET", "/a", ""),
		recAt(2*time.Second, "GET", "/b", ""),
	}
	start := time.Now()
	res, err := Run(context.Background(), records, Config{Target: srv.URL, Speed: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 2 {
		t.Fatalf("sent = %d", res.Sent)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("replay took %v, want ~20ms at 100x", elapsed)
	}
}

func TestRunFixedRateLoopsRecords(t *testing.T) {
	var served int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt64(&served, 1)
	}))
	defer srv.Close()
	// Two records, but a 500/s open-loop schedule over 200 ms must
	// offer ~100 requests by cycling through them.
	records := []logfmt.Record{
		recAt(0, "GET", "/a", ""),
		recAt(time.Hour, "GET", "/b", ""), // recorded gaps are ignored in rate mode
	}
	res, err := Run(context.Background(), records, Config{
		Target: srv.URL, Rate: 500, Duration: 200 * time.Millisecond, Concurrency: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered < 60 || res.Offered > 140 {
		t.Errorf("offered = %d, want ~100 at 500/s over 200ms", res.Offered)
	}
	if res.Sent != res.Offered {
		t.Errorf("sent %d != offered %d", res.Sent, res.Offered)
	}
	if atomic.LoadInt64(&served) != res.Sent {
		t.Errorf("server saw %d, harness sent %d", served, res.Sent)
	}
}

func TestWarmupExcludedFromStats(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	res, err := Run(context.Background(), []logfmt.Record{recAt(0, "GET", "/a", "")}, Config{
		Target: srv.URL, Rate: 200, Duration: 300 * time.Millisecond,
		Warmup: 150 * time.Millisecond, Concurrency: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Measured >= res.Sent {
		t.Errorf("warmup not excluded: measured %d of %d sent", res.Measured, res.Sent)
	}
	if res.Measured == 0 {
		t.Error("no post-warmup samples recorded")
	}
	if res.Latency.Count() != res.Measured {
		t.Errorf("histogram count %d != measured %d", res.Latency.Count(), res.Measured)
	}
}

// TestCoordinatedOmissionCorrection is the harness's reason to exist:
// a server that stalls once for 500 ms while an open-loop schedule
// keeps arriving. The naive per-response clock sees one slow response
// and hundreds of fast ones, so its p99 stays tiny; the intended-start
// clock sees every queued request's wait, so its p99 is the stall.
func TestCoordinatedOmissionCorrection(t *testing.T) {
	var first atomic.Bool
	first.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(true, false) {
			time.Sleep(500 * time.Millisecond)
		}
	}))
	defer srv.Close()

	res, err := Run(context.Background(), []logfmt.Record{recAt(0, "GET", "/a", "")}, Config{
		Target: srv.URL, Rate: 1000, Duration: 900 * time.Millisecond, Concurrency: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	naive := res.Service.QuantileDuration(0.99)
	corrected := res.Latency.QuantileDuration(0.99)
	t.Logf("p99: naive(service)=%v corrected(intended)=%v over %d samples", naive, corrected, res.Measured)
	if corrected < 100*time.Millisecond {
		t.Errorf("intended-start p99 = %v, want >= 100ms (the stall must surface)", corrected)
	}
	if corrected < 10*naive {
		t.Errorf("coordinated omission not corrected: intended p99 %v < 10x naive p99 %v", corrected, naive)
	}
}

func TestRunContextCancel(t *testing.T) {
	var served int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt64(&served, 1)
	}))
	defer srv.Close()
	var records []logfmt.Record
	for i := 0; i < 100; i++ {
		records = append(records, recAt(time.Duration(i)*time.Second, "GET", "/x", ""))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	res, err := Run(ctx, records, Config{Target: srv.URL, Speed: 1})
	if err == nil {
		t.Error("expected context error")
	}
	if res.Sent >= 100 {
		t.Errorf("cancelation did not stop scheduling: sent %d", res.Sent)
	}
}

func TestRunTransportErrors(t *testing.T) {
	records := []logfmt.Record{recAt(0, "GET", "/a", "")}
	res, err := Run(context.Background(), records, Config{
		Target: "http://127.0.0.1:1", // nothing listens here
		Client: &http.Client{Timeout: 200 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 1 || res.MeasuredErrors != 1 {
		t.Errorf("errors = %d/%d", res.Errors, res.MeasuredErrors)
	}
	if res.ErrorRate() != 1 {
		t.Errorf("error rate = %v", res.ErrorRate())
	}
	// Failed requests still contribute to the intended-latency tail:
	// a timing-out server must not vanish from the distribution.
	if res.Latency.Count() != 1 {
		t.Errorf("error latency not recorded: %d samples", res.Latency.Count())
	}
}

func TestRunEmptyAndValidation(t *testing.T) {
	if _, err := Run(context.Background(), nil, Config{}); err == nil {
		t.Error("missing target accepted")
	}
	res, err := Run(context.Background(), nil, Config{Target: "http://x"})
	if err != nil || res.Sent != 0 {
		t.Errorf("empty replay: %v %+v", err, res)
	}
}

func TestProgressLineAndRegistry(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	var buf bytes.Buffer
	logger := obs.NewLogger(&buf, "test-run", 1, nil).Component("replay")
	reg := obs.NewRegistry()
	_, err := Run(context.Background(), []logfmt.Record{recAt(0, "GET", "/a", "")}, Config{
		Target: srv.URL, Rate: 300, Duration: 250 * time.Millisecond,
		Logger: logger, ProgressEvery: 50 * time.Millisecond, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"replay progress", "rps=", "inflight=", "p99_ms=", "lag_p99_ms="} {
		if !strings.Contains(out, want) {
			t.Errorf("progress log missing %q:\n%s", want, out)
		}
	}
	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`replay_requests_total{status="200"}`,
		`replay_latency_seconds{kind="intended",quantile="0.99"}`,
		"replay_inflight 0",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus exposition missing %q:\n%s", want, prom.String())
		}
	}
}

func TestRunAgainstEdge(t *testing.T) {
	// Replay synthetic manifest traffic against the real caching edge.
	e := newTestEdge()
	srv := httptest.NewServer(e)
	defer srv.Close()
	records := []logfmt.Record{
		recAt(0, "GET", "/stories", "NewsApp/3.1 (iPhone)"),
		recAt(5*time.Millisecond, "GET", "/stories", "NewsApp/3.1 (iPhone)"),
		recAt(10*time.Millisecond, "GET", "/article/1001", "NewsApp/3.1 (iPhone)"),
	}
	res, err := Run(context.Background(), records, Config{Target: srv.URL, Speed: 1, Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status[200] != 3 {
		t.Fatalf("status = %v", res.Status)
	}
	if res.MIME["application/json"] != 3 {
		t.Fatalf("mime = %v", res.MIME)
	}
}
