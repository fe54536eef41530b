package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/edge"
	"repro/internal/fleet/chaos"
	"repro/internal/obs"
)

// TestServeStackRetainsNoRequests serves 50 000 cache hits on one URL
// through the node and requires the live heap to stay within 1 MiB of
// where it started: a long-lived edge must not keep a copy of every
// request it answered. The count still reaches the shutdown report
// through the edge's request counters.
func TestServeStackRetainsNoRequests(t *testing.T) {
	const requests = 50_000
	st := Node(Config{FaultSeed: 7})
	defer st.Close()
	serve := func() {
		rec := httptest.NewRecorder()
		st.Edge.ServeHTTP(rec, httptest.NewRequest("GET", "http://edge.test/stories", nil))
		if rec.Code != 200 {
			t.Fatalf("GET /stories = %d", rec.Code)
		}
	}
	serve() // the miss that fills the cache
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	for i := 1; i < requests; i++ {
		serve()
	}
	after := heap()
	if after > before && after-before >= 1<<20 {
		t.Errorf("live heap grew %d KiB over %d requests", (after-before)>>10, requests)
	}
	if got := st.Served(); got != requests {
		t.Errorf("served = %d, want %d", got, requests)
	}
	runtime.KeepAlive(st)
}

// TestNodeLifecycleMatrix runs every combination of defense,
// characterization plane, chaos listener and origin fault rate through
// Start and Stop on loopback: each node fills on a miss and answers the
// repeat from cache, exposes exactly the metric families and admin
// routes its config turns on, publishes one URL per listener, and stops
// without leaving a goroutine behind.
func TestNodeLifecycleMatrix(t *testing.T) {
	for _, defended := range []bool{false, true} {
		for _, char := range []bool{false, true} {
			for _, chaosOn := range []bool{false, true} {
				for _, rate := range []float64{0, 0.3} {
					name := fmt.Sprintf("defend=%v/livechar=%v/chaos=%v/fault=%g", defended, char, chaosOn, rate)
					t.Run(name, func(t *testing.T) {
						checkNode(t, Config{FaultRate: rate, FaultSeed: 7, Defend: defended,
							LiveChar: char, CharSnapshot: 0, OutDir: t.TempDir()}, chaosOn)
					})
				}
			}
		}
	}
}

func checkNode(t *testing.T, cfg Config, chaosOn bool) {
	goroutines := runtime.NumGoroutine()
	st := Node(cfg)
	st.Log = nil
	urlFile := filepath.Join(t.TempDir(), "edge.url")
	lc := Lifecycle{Listen: "127.0.0.1:0", Admin: "127.0.0.1:0", URLFile: urlFile,
		DrainGrace: time.Second, Handler: st.Handler, AdminMux: st.Admin, Health: st.Health}
	if chaosOn {
		lc.Chaos = "127.0.0.1:0"
	}
	srv, err := lc.Start()
	if err != nil {
		t.Fatal(err)
	}
	transport := &http.Transport{}
	client := &http.Client{Transport: transport, Timeout: 5 * time.Second}
	get := func(url string) (int, http.Header, string) {
		t.Helper()
		resp, err := client.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header, string(body)
	}

	// A miss fills the cache (a faulty origin may need the client to ask
	// again once every retry failed); the repeat is a hit.
	code, hdr, _ := get(srv.URL + "/article/1001")
	for i := 0; code != http.StatusOK && i < 5; i++ {
		code, hdr, _ = get(srv.URL + "/article/1001")
	}
	if code != http.StatusOK || hdr.Get("X-Cache") != "MISS" {
		t.Fatalf("first GET = %d X-Cache %q, want 200 MISS", code, hdr.Get("X-Cache"))
	}
	if code, hdr, _ = get(srv.URL + "/article/1001"); code != http.StatusOK || hdr.Get("X-Cache") != "HIT" {
		t.Errorf("second GET = %d X-Cache %q, want 200 HIT", code, hdr.Get("X-Cache"))
	}
	if code, _, _ = get(srv.URL + "/healthz"); code != http.StatusOK {
		t.Errorf("data /healthz = %d while ready", code)
	}

	_, _, metrics := get(srv.AdminURL + "/metrics")
	for prefix, want := range map[string]bool{"edge_": true, "resilience_": true,
		"defend_": cfg.Defend, "livechar_": cfg.LiveChar} {
		if got := strings.Contains(metrics, "\n"+prefix); got != want {
			t.Errorf("/metrics has %s* series = %v, want %v", prefix, got, want)
		}
	}
	if code, _, _ = get(srv.AdminURL + "/charz"); (code == http.StatusOK) != cfg.LiveChar {
		t.Errorf("admin /charz = %d with livechar=%v", code, cfg.LiveChar)
	}
	if chaosOn {
		if code, _, body := get(srv.ChaosURL + "/chaos"); code != http.StatusOK || !strings.Contains(body, `"mode":"ok"`) {
			t.Errorf("chaos control = %d %q", code, body)
		}
		// The injector fronts the data listener, /healthz included.
		ctx := context.Background()
		if err := chaos.InjectHTTP(ctx, client, srv.ChaosURL, chaos.ModeDead, 0); err != nil {
			t.Fatal(err)
		}
		if code, _, _ = get(srv.URL + "/healthz"); code != http.StatusServiceUnavailable {
			t.Errorf("data /healthz = %d with the node played dead, want 503", code)
		}
		if err := chaos.InjectHTTP(ctx, client, srv.ChaosURL, chaos.ModeOK, 0); err != nil {
			t.Fatal(err)
		}
	} else if srv.ChaosURL != "" {
		t.Errorf("chaos control at %s without a chaos listener", srv.ChaosURL)
	}
	urls, err := edge.AwaitURLFile(context.Background(), urlFile, time.Second)
	want := []string{srv.URL, srv.AdminURL}
	if chaosOn {
		want = append(want, srv.ChaosURL)
	}
	if err != nil || strings.Join(urls, " ") != strings.Join(want, " ") {
		t.Errorf("URL file = %v (%v), want %v", urls, err, want)
	}

	srv.Stop()
	st.Close()
	if cfg.LiveChar {
		if m, _ := filepath.Glob(filepath.Join(cfg.OutDir, "run-*.json")); len(m) != 1 {
			t.Errorf("run manifests written = %v, want one", m)
		}
	}
	if _, err := client.Get(srv.URL + "/healthz"); err == nil {
		t.Error("data listener still answering after Stop")
	}
	transport.CloseIdleConnections()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after Stop, %d before:\n%s", n, goroutines, buf[:runtime.Stack(buf, true)])
	}
}

// TestStopDrainsBeforeClosing pins Stop's order: by the time the drain
// hook runs, the admin /readyz already answers 503 while the data
// listener still serves; the hook runs once however often Stop is
// called; and the data listener is closed when Stop returns.
func TestStopDrainsBeforeClosing(t *testing.T) {
	health := &obs.Health{}
	urlFile := filepath.Join(t.TempDir(), "front.url")
	var srv *Server
	drains := 0
	lc := Lifecycle{
		Listen: "127.0.0.1:0", Admin: "127.0.0.1:0", URLFile: urlFile, DrainGrace: time.Second,
		Handler:  http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "data") }),
		AdminMux: obs.AdminMux(obs.NewRegistry(), health),
		Health:   health,
		Drain: func() {
			drains++
			if code := status(t, srv.AdminURL+"/readyz"); code != http.StatusServiceUnavailable {
				t.Errorf("admin /readyz = %d during drain, want 503", code)
			}
			if code := status(t, srv.URL+"/"); code != http.StatusOK {
				t.Errorf("data listener = %d during drain, want 200", code)
			}
		},
	}
	var err error
	if srv, err = lc.Start(); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(urlFile); err != nil || string(data) != srv.URL+"\n"+srv.AdminURL+"\n" {
		t.Errorf("URL file = %q (%v)", data, err)
	}
	if code := status(t, srv.AdminURL+"/readyz"); code != http.StatusOK {
		t.Errorf("admin /readyz = %d once started, want 200", code)
	}
	srv.Stop()
	srv.Stop()
	if drains != 1 {
		t.Errorf("drain hook ran %d times, want 1", drains)
	}
	if _, err := http.Get(srv.URL + "/"); err == nil {
		t.Error("data listener still open after Stop")
	}
}

func status(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}
