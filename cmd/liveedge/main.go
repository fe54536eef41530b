// Liveedge: run a real net/http caching edge server on loopback, drive
// it with synthetic clients following the paper's manifest pattern
// (Table 1: fetch /stories, then the referenced articles), then analyze
// the edge's own request log with the characterization pipeline. The
// edge is fully instrumented: an admin server exposes Prometheus
// metrics, expvar, and pprof while it runs, and the run ends with a
// short total origin outage — a probe's HEADs are served stale from the
// cache — and a sample of its own /metrics scrape.
//
// The origin is deliberately unreliable: a seeded fault injector drops
// a fraction of fetches (-fault-rate), and the edge survives it with
// the full resilience stack — retries with jittered backoff, a circuit
// breaker, and serve-stale — so the scrape sample shows the recovery
// metrics alongside the cache ones.
//
//	go run ./cmd/liveedge
//	go run ./cmd/liveedge -fault-rate 0.3 -fault-seed 9
//
// With -serve the self-driving clients are replaced by an external
// load source, and the edge serves until SIGINT/SIGTERM — how `make
// slo-check` spins it up. Both modes run the same node (internal/serve)
// through the same lifecycle: the edge binds -listen (port 0 works),
// publishes its URLs through -url-file once ready (the handshake
// `jsonreplay -target-file` consumes), and stops by draining: readiness
// flips off first, then in-flight requests get -drain-grace.
//
//	go run ./cmd/liveedge -serve -listen 127.0.0.1:0 \
//	    -url-file /tmp/edge.url -fault-rate 0
//
// With -chaos-listen the node also serves a fault-injection control
// endpoint (see internal/fleet/chaos) on its own listener, published
// as the third URL-file line; the jsonfleet supervisor uses it to
// pause, partition, or play-dead this node mid-run without touching
// the process.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	cdnjson "repro"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/serve"
)

func main() {
	var (
		faultRate  = flag.Float64("fault-rate", 0.15, "probability an origin fetch fails (seeded, reproducible)")
		faultSeed  = flag.Uint64("fault-seed", 7, "seed for fault injection and backoff jitter")
		serveMode  = flag.Bool("serve", false, "serve external traffic until SIGINT/SIGTERM instead of running the built-in clients")
		listen     = flag.String("listen", "127.0.0.1:0", "edge listen address")
		adminAddr  = flag.String("admin", "127.0.0.1:0", "admin (metrics/readyz/pprof) listen address")
		urlFile    = flag.String("url-file", "", "publish the edge and admin URLs to this file once ready (the -serve mode handshake)")
		defendOn   = flag.Bool("defend", false, "enable the detect-and-defend admission loop (rate limits, cache-key collapse, negative caching, abuser shedding)")
		chaosAddr  = flag.String("chaos-listen", "", "serve the chaos fault-injection control endpoint on this address (published as the third URL-file line)")
		drainGrace = flag.Duration("drain-grace", 2*time.Second, "in-flight request window after SIGTERM before the listener closes")
		charOn     = flag.Bool("livechar", false, "enable the live traffic-characterization plane: /charz on the admin mux, livechar_* metrics, periodic char-<id>.json snapshots")
		charWindow = flag.Duration("char-window", time.Minute, "livechar tumbling window (event time)")
		charBin    = flag.Duration("char-bin", time.Second, "livechar rate-sampling bin for periodicity detection")
		charSnap   = flag.Duration("char-snapshot", 30*time.Second, "interval between char-<id>.json snapshots (0 disables; a final one is written at shutdown)")
		outDir     = flag.String("out-dir", "out", "directory for run manifests and char snapshots")
		nodeName   = flag.String("node", "", "node label on livechar snapshots, for fleet merges (default: the run id)")
	)
	flag.Parse()

	st := serve.Node(serve.Config{
		FaultRate:    *faultRate,
		FaultSeed:    *faultSeed,
		Defend:       *defendOn,
		LiveChar:     *charOn,
		CharWindow:   *charWindow,
		CharBin:      *charBin,
		CharSnapshot: *charSnap,
		OutDir:       *outDir,
		Node:         *nodeName,
	})
	lc := serve.Lifecycle{
		Listen:     *listen,
		Admin:      *adminAddr,
		Chaos:      *chaosAddr,
		URLFile:    *urlFile,
		DrainGrace: *drainGrace,
		Handler:    st.Handler,
		AdminMux:   st.Admin,
		Health:     st.Health,
		Log:        st.Log,
	}
	if !*serveMode {
		runSelfDriven(st, lc)
		return
	}
	srv, err := lc.Start()
	if err != nil {
		st.Log.Error("starting edge", "err", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	<-ctx.Done()
	stop() // a second signal kills the process mid-drain
	srv.Stop()
	st.Close()
	st.Log.Info("edge stopped", "requests_served", st.Served(),
		"origin_faults", st.Faulty.Faults(), "breaker_opens", st.Breaker.Opens())
}

// runSelfDriven is the original demo: built-in clients load the
// manifest pattern at the published URL, then the edge's own log is
// characterized.
func runSelfDriven(st *serve.Stack, lc serve.Lifecycle) {
	// The last act is a scripted total outage on the origin's own clock,
	// which jumps into the brownout window when outage is set.
	var outage atomic.Bool
	outageAt := time.Now().Add(24 * time.Hour)
	st.Faulty.Brownouts = []resilience.Window{{From: outageAt, To: outageAt.Add(time.Hour)}}
	st.Faulty.Now = func() time.Time {
		if outage.Load() {
			return outageAt
		}
		return time.Now()
	}
	// The demo keeps a copy of the edge's request log to characterize it
	// at the end; a -serve edge keeps none.
	var mu sync.Mutex
	var logs []cdnjson.Record
	st.AddLog(func(r *cdnjson.Record) {
		mu.Lock()
		logs = append(logs, *r)
		mu.Unlock()
	})

	srv, err := lc.Start()
	if err != nil {
		st.Log.Error("starting edge", "err", err)
		os.Exit(1)
	}

	// Drive it: concurrent app clients load the manifest and then read
	// articles; one IoT poller posts telemetry.
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Stagger arrivals as real clients would; simultaneous cold
			// starts would all miss before the first response fills the
			// cache.
			time.Sleep(time.Duration(c) * 40 * time.Millisecond)
			appClient(st.Log, srv.URL, c)
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			fetch(st.Log, "POST", srv.URL+"/ingest/metrics", "HomeCam/1.9 (IoT; ESP32)")
			time.Sleep(20 * time.Millisecond)
		}
	}()
	wg.Wait()

	// Outage: every fetch now fails. Cached GETs still hit; a monitor
	// revalidating the manifest with HEAD — which always goes to the
	// origin — is answered from the copy the cache holds, served stale.
	outage.Store(true)
	for i := 0; i < 3; i++ {
		fetch(st.Log, "HEAD", srv.URL+"/stories", "UptimeProbe/2.0")
	}

	// Scrape our own admin endpoint to show the zero-to-metrics path,
	// then stop: Close drains the characterization plane's tap, so its
	// snapshot below covers every request.
	sample := scrapeSample(st.Log, srv.AdminURL+"/metrics")
	srv.Stop()
	st.Close()

	// Analyze the edge's own log.
	mu.Lock()
	defer mu.Unlock()
	fmt.Printf("\nedge served %d requests; analyzing its log...\n\n", len(logs))
	char := cdnjson.NewCharacterization()
	var hits, cacheable int
	for i := range logs {
		char.ObserveAny(&logs[i])
		switch logs[i].Cache {
		case cdnjson.CacheHit:
			hits++
			cacheable++
		case cdnjson.CacheMiss:
			cacheable++
		}
	}
	fmt.Printf("device shares: mobile %.0f%%, embedded %.0f%%\n",
		char.DeviceShare(cdnjson.DeviceMobile)*100,
		char.DeviceShare(cdnjson.DeviceEmbedded)*100)
	fmt.Printf("GET share: %.0f%%   uncacheable: %.0f%%\n",
		char.GETShare()*100, char.UncacheableShare()*100)
	if cacheable > 0 {
		fmt.Printf("edge cache hit ratio: %.0f%% (%d/%d cacheable requests)\n",
			float64(hits)/float64(cacheable)*100, hits, cacheable)
	}
	fmt.Printf("origin faults absorbed: %d injected over %d fetches, %d retries, %d stale serves, %d breaker opens\n",
		st.Faulty.Faults(), st.Faulty.Fetches(), st.Origin.Obs.Retries.Value(),
		st.Edge.Obs.StaleServes.Value(), st.Breaker.Opens())
	fmt.Printf("request trace: %d spans retained (last %d requests), %d dropped by the retention window\n",
		len(st.Edge.Trace.Spans()), st.Edge.Trace.Limit, st.Edge.Trace.Dropped())

	// With -livechar the same log was also characterized live; show the
	// streaming view next to the batch one.
	if st.Char != nil {
		snap := st.Char.Snapshot()
		fmt.Printf("\nlive characterization (%s/charz): %d events, %d drops\n",
			srv.AdminURL, snap.Events, snap.Drops)
		if w := snap.Current; w != nil {
			for i, hh := range w.TopObjects {
				if i >= 3 {
					break
				}
				fmt.Printf("  top object %d: %s (%d reqs, err <= %d)\n", i+1, hh.Key, hh.Count, hh.Err)
			}
		}
		fmt.Printf("  predictability: top-%d hit rate %.2f over %d predictions, unigram entropy %.2f bits\n",
			snap.Predict.K, snap.Predict.HitRate, snap.Predict.Observations, snap.Predict.EntropyBits)
	}

	fmt.Printf("\nsample of %s/metrics:\n", srv.AdminURL)
	for _, line := range sample {
		fmt.Printf("  %s\n", line)
	}
}

// scrapeSample fetches a Prometheus endpoint and returns its edge_* and
// resilience_* samples (skipping comment lines and the summaries'
// quantile series).
func scrapeSample(log *obs.Logger, url string) []string {
	resp, err := http.Get(url)
	if err != nil {
		log.Warn("scrape failed", "err", err)
		return nil
	}
	defer resp.Body.Close()
	var out []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if (strings.HasPrefix(line, "edge_") || strings.HasPrefix(line, "resilience_")) &&
			!strings.Contains(line, `quantile="`) {
			out = append(out, line)
		}
	}
	return out
}

// appClient mimics the Table 1 flow: GET the manifest, decode it, then
// GET a few referenced articles.
func appClient(log *obs.Logger, base string, id int) {
	ua := fmt.Sprintf("NewsApp/3.1 (iPhone; iOS 12.2; client %d)", id)
	var stories []struct {
		ID int `json:"article_id"`
	}
	if err := json.Unmarshal(fetch(log, "GET", base+"/stories", ua), &stories); err != nil {
		log.Warn("bad manifest", "client", id, "err", err)
		return
	}
	for i, s := range stories {
		if i >= 3+id%3 {
			break
		}
		fetch(log, "GET", fmt.Sprintf("%s/article/%d", base, s.ID), ua)
		time.Sleep(5 * time.Millisecond)
	}
}

// fetch sends one request as the client ua and returns the body (nil
// when the request fails).
func fetch(log *obs.Logger, method, url, ua string) []byte {
	req, _ := http.NewRequest(method, url, nil)
	req.Header.Set("User-Agent", ua)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Warn("request failed", "method", method, "url", url, "err", err)
		return nil
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return body
}
