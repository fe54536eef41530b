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
// load source: the edge binds -listen (port 0 works), publishes its
// URLs through -url-file once ready (the handshake `jsonreplay
// -target-file` consumes), and serves until SIGINT/SIGTERM — how
// `make slo-check` spins it up. SIGTERM drains gracefully: readiness
// flips off first, then in-flight requests get a shutdown window.
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
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	cdnjson "repro"
	"repro/internal/defend"
	"repro/internal/edge"
	"repro/internal/fleet/chaos"
	"repro/internal/livechar"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// logger is the example's structured logger; main wires it before any
// client goroutine runs.
var logger *obs.Logger

// edgeStack bundles the wired server components so both run modes
// share one construction path.
type edgeStack struct {
	edge     *cdnjson.HTTPEdge
	faulty   *resilience.FaultyOrigin
	origin   *resilience.ResilientOrigin
	breaker  *resilience.Breaker
	defender *defend.Defender
	char     *livechar.LiveChar
	reg      *obs.Registry
	health   *obs.Health
	// logs is the self-driven demo's copy of the edge's request log, which
	// it characterizes at the end; a -serve edge keeps none.
	mu   sync.Mutex
	logs []cdnjson.Record
}

func main() {
	var (
		faultRate  = flag.Float64("fault-rate", 0.15, "probability an origin fetch fails (seeded, reproducible)")
		faultSeed  = flag.Uint64("fault-seed", 7, "seed for fault injection and backoff jitter")
		serve      = flag.Bool("serve", false, "serve external traffic until SIGINT/SIGTERM instead of running the built-in clients")
		listen     = flag.String("listen", "127.0.0.1:0", "edge listen address in -serve mode")
		adminAddr  = flag.String("admin", "127.0.0.1:0", "admin (metrics/readyz/pprof) listen address in -serve mode")
		urlFile    = flag.String("url-file", "", "publish the edge and admin URLs to this file once ready (-serve mode handshake)")
		defendOn   = flag.Bool("defend", false, "enable the detect-and-defend admission loop (rate limits, cache-key collapse, negative caching, abuser shedding)")
		chaosAddr  = flag.String("chaos-listen", "", "serve the chaos fault-injection control endpoint on this address (-serve mode; published as the third URL-file line)")
		drainGrace = flag.Duration("drain-grace", 2*time.Second, "in-flight request window after SIGTERM before the listener closes")
		charOn     = flag.Bool("livechar", false, "enable the live traffic-characterization plane: /charz on the admin mux, livechar_* metrics, periodic char-<id>.json snapshots")
		charWindow = flag.Duration("char-window", time.Minute, "livechar tumbling window (event time)")
		charBin    = flag.Duration("char-bin", time.Second, "livechar rate-sampling bin for periodicity detection")
		charSnap   = flag.Duration("char-snapshot", 30*time.Second, "interval between char-<id>.json snapshots in -serve mode (0 disables)")
		outDir     = flag.String("out-dir", "out", "directory for run manifests and char snapshots")
		nodeName   = flag.String("node", "", "node label on livechar snapshots, for fleet merges (default: the run id)")
	)
	flag.Parse()
	runID := obs.NewRunID()
	logger = obs.NewLogger(os.Stderr, runID, *faultSeed, nil).Component("liveedge")

	st := buildEdgeStack(*faultRate, *faultSeed, *serve, *defendOn)
	if *charOn {
		node := *nodeName
		if node == "" {
			node = runID
		}
		st.char = livechar.New(livechar.Config{
			Window: *charWindow,
			Bin:    *charBin,
			Seed:   *faultSeed,
			Node:   node,
		})
		st.char.Instrument(st.reg)
		// Tap the edge's request log: the previous hook keeps running,
		// livechar sees every record first. After Start the tap is a
		// non-blocking channel send; overflow is dropped and counted.
		prevLog := st.edge.Log
		st.edge.Log = func(r *cdnjson.Record) {
			st.char.Observe(r)
			if prevLog != nil {
				prevLog(r)
			}
		}
	}
	if *serve {
		runServe(st, serveConfig{
			listen:     *listen,
			adminAddr:  *adminAddr,
			urlFile:    *urlFile,
			chaosAddr:  *chaosAddr,
			drainGrace: *drainGrace,
			runID:      runID,
			outDir:     *outDir,
			charSnap:   *charSnap,
		})
		return
	}
	runSelfDriven(st)
}

// serveConfig bundles runServe's knobs.
type serveConfig struct {
	listen, adminAddr, urlFile, chaosAddr string
	drainGrace                            time.Duration
	runID                                 string
	outDir                                string
	charSnap                              time.Duration
}

// buildEdgeStack wires the cache, the faulty origin, and the full
// resilience path, instrumented into one registry. In serve mode the
// origin answers every path (WildcardOrigin), so replayed synthetic
// streams see the real hit/miss mix instead of 404s, and no request log
// is kept: a long-lived server must not grow with every request. With
// defended set the detect-and-defend admission loop fronts the cache,
// keying client state on the X-Client-Id header jsonreplay forwards.
func buildEdgeStack(faultRate float64, faultSeed uint64, serve, defended bool) *edgeStack {
	st := &edgeStack{}
	var inner edge.Origin = &edge.JSONOrigin{Articles: 40, Latency: 2 * time.Millisecond}
	if serve {
		inner = &edge.WildcardOrigin{Inner: inner, Latency: 2 * time.Millisecond}
	}
	st.faulty = &resilience.FaultyOrigin{
		Inner:     inner,
		Seed:      faultSeed,
		ErrorRate: faultRate,
	}
	st.breaker = &resilience.Breaker{FailureThreshold: 5, OpenFor: 200 * time.Millisecond}
	st.origin = &resilience.ResilientOrigin{
		Inner:          st.faulty,
		Retry:          resilience.Backoff{Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond, Attempts: 3},
		Breaker:        st.breaker,
		AttemptTimeout: time.Second,
		Seed:           faultSeed + 1,
	}
	st.edge = &cdnjson.HTTPEdge{
		Cache:      edgeCache(),
		Origin:     st.origin,
		ServeStale: true,
		Degraded:   st.origin.Degraded,
	}
	if !serve {
		st.edge.Log = func(r *cdnjson.Record) {
			st.mu.Lock()
			st.logs = append(st.logs, *r)
			st.mu.Unlock()
		}
	}
	st.reg = obs.NewRegistry()
	st.edge.Instrument(st.reg)
	if defended {
		st.defender = defend.New(defend.Config{ClientIDHeader: "X-Client-Id"})
		st.defender.Instrument(st.reg)
		st.edge.Defend = st.defender
	}
	// A small retention window: a long-lived edge traces the most recent
	// requests, not the whole history.
	st.edge.Trace = &obs.Trace{Limit: 64}
	st.origin.Obs = resilience.NewInstrumentation(st.reg)
	resilience.RegisterBreaker(st.reg, st.breaker)
	st.health = &obs.Health{}
	return st
}

// served is how many requests the edge has answered, from its request
// counters.
func (st *edgeStack) served() int64 {
	o := st.edge.Obs
	return o.GETRequests.Value() + o.POSTRequests.Value() + o.HEADRequests.Value() + o.OtherRequests.Value()
}

// runServe is the harness-facing mode: bind real listeners, publish
// URLs once ready, serve until a signal arrives, then drain and report
// what was served.
func runServe(st *edgeStack, cfg serveConfig) {
	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		logger.Error("listen failed", "addr", cfg.listen, "err", err)
		os.Exit(1)
	}
	edgeURL := "http://" + ln.Addr().String()

	// /healthz rides the data listener, not the admin mux, so the fleet
	// prober shares fate with real traffic: an injected pause, partition,
	// or play-dead hits the probe exactly as it hits requests. Draining
	// (readiness off) fails the probe too, so a supervisor stops routing
	// here before the listener closes.
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !st.health.Ready() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/", st.edge)
	var handler http.Handler = mux

	// With a chaos listener, every edge request — /healthz included —
	// routes through the injector; the control endpoint gets its own
	// listener so a partitioned node can still be healed.
	var chaosSrv *http.Server
	var chaosURL string
	if cfg.chaosAddr != "" {
		injector := &chaos.Injector{}
		handler = injector.Wrap(mux)
		cln, err := net.Listen("tcp", cfg.chaosAddr)
		if err != nil {
			logger.Error("chaos listen failed", "addr", cfg.chaosAddr, "err", err)
			os.Exit(1)
		}
		chaosURL = "http://" + cln.Addr().String()
		chaosSrv = &http.Server{Handler: injector.ControlHandler()}
		go chaosSrv.Serve(cln)
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)

	// Compose the admin mux before the listener opens so a probe can
	// never observe a half-wired surface: /charz joins the built-ins
	// when the characterization plane is on.
	adminMux := obs.AdminMux(st.reg, st.health)
	if st.char != nil {
		adminMux.Handle("/charz", st.char.Handler())
	}
	adminSrv, adminURL, err := obs.ServeHandler(cfg.adminAddr, adminMux)
	if err != nil {
		logger.Error("admin listen failed", "addr", cfg.adminAddr, "err", err)
		os.Exit(1)
	}
	// Both listeners are up and the origin path is wired: flip ready,
	// THEN publish the URL file — the handshake's ordering contract.
	st.health.SetReady(true)
	if cfg.urlFile != "" {
		urls := []string{edgeURL, adminURL}
		if chaosURL != "" {
			urls = append(urls, chaosURL)
		}
		if err := edge.WriteURLFile(cfg.urlFile, urls...); err != nil {
			logger.Error("publishing URL file", "path", cfg.urlFile, "err", err)
			os.Exit(1)
		}
	}
	logger.Info("edge serving", "url", edgeURL, "admin", adminURL,
		"chaos", chaosURL, "url_file", cfg.urlFile)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The characterization plane goes async once traffic can arrive; a
	// snapshot loop writes periodic char-<id>.json artifacts whose
	// ledger steps fold into the run manifest at shutdown.
	var manifest *obs.Manifest
	var charWG sync.WaitGroup
	var charMu sync.Mutex
	charSeq := 0
	if st.char != nil {
		st.char.Start()
		manifest = obs.NewManifest("liveedge", cfg.runID)
		manifest.Config["livechar"] = true
		manifest.Config["char_window"] = st.char.Config().Window.String()
		manifest.Config["char_bin"] = st.char.Config().Bin.String()
		manifest.Config["char_snapshot"] = cfg.charSnap.String()
		manifest.Config["listen"] = cfg.listen
		if cfg.charSnap > 0 {
			charWG.Add(1)
			go func() {
				defer charWG.Done()
				tick := time.NewTicker(cfg.charSnap)
				defer tick.Stop()
				for {
					select {
					case <-ctx.Done():
						return
					case <-tick.C:
						charMu.Lock()
						charSeq++
						seq := charSeq
						charMu.Unlock()
						path, step, err := st.char.WriteSnapshot(cfg.outDir, cfg.runID, seq)
						if err != nil {
							logger.Warn("char snapshot failed", "err", err)
							continue
						}
						charMu.Lock()
						manifest.Steps = append(manifest.Steps, step)
						charMu.Unlock()
						logger.Info("char snapshot written", "path", path)
					}
				}
			}()
		}
	}

	<-ctx.Done()
	stop()

	// Graceful drain: readiness flips off first so probers and
	// supervisors stop routing here, then in-flight requests get the
	// grace window before the listener closes.
	st.health.SetReady(false)
	logger.Info("edge draining", "grace", cfg.drainGrace)
	shutCtx, cancel := context.WithTimeout(context.Background(), cfg.drainGrace)
	defer cancel()
	srv.Shutdown(shutCtx)
	if chaosSrv != nil {
		chaosSrv.Close()
	}
	adminSrv.Close()

	if st.char != nil {
		charWG.Wait()
		st.char.Close()
		// Final snapshot after the drain so the artifact reflects the
		// whole run, then the manifest closes the books.
		charSeq++
		if path, step, err := st.char.WriteSnapshot(cfg.outDir, cfg.runID, charSeq); err != nil {
			logger.Warn("final char snapshot failed", "err", err)
		} else {
			manifest.Steps = append(manifest.Steps, step)
			logger.Info("char snapshot written", "path", path)
		}
		manifest.Finish("completed")
		manifest.AddMetrics(st.reg)
		if path, err := manifest.WriteFile(cfg.outDir); err != nil {
			logger.Warn("writing run manifest", "err", err)
		} else {
			logger.Info("run manifest written", "path", path)
		}
	}

	logger.Info("edge stopped", "requests_served", st.served(),
		"origin_faults", st.faulty.Faults(), "breaker_opens", st.breaker.Opens())
}

// runSelfDriven is the original demo: built-in clients load the
// manifest pattern, then the edge's own log is characterized.
func runSelfDriven(st *edgeStack) {
	// The last act is a scripted total outage on the origin's own clock,
	// which jumps into the brownout window when outage is set.
	var outage atomic.Bool
	outageAt := time.Now().Add(24 * time.Hour)
	st.faulty.Brownouts = []resilience.Window{{From: outageAt, To: outageAt.Add(time.Hour)}}
	st.faulty.Now = func() time.Time {
		if outage.Load() {
			return outageAt
		}
		return time.Now()
	}

	srv := httptest.NewServer(st.edge)
	defer srv.Close()
	adminMux := obs.AdminMux(st.reg, st.health)
	if st.char != nil {
		adminMux.Handle("/charz", st.char.Handler())
	}
	admin := httptest.NewServer(adminMux)
	defer admin.Close()
	// Both listeners are up and the origin path is wired: ready.
	st.health.SetReady(true)
	logger.Info("edge server listening", "url", srv.URL)
	logger.Info("admin endpoints up", "metrics", admin.URL+"/metrics",
		"readyz", admin.URL+"/readyz", "pprof", admin.URL+"/debug/pprof/")

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
			appClient(srv.URL, c)
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			req, _ := http.NewRequest("POST", srv.URL+"/ingest/metrics", nil)
			req.Header.Set("User-Agent", "HomeCam/1.9 (IoT; ESP32)")
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()
	wg.Wait()

	// Outage: every fetch now fails. Cached GETs still hit; a monitor
	// revalidating the manifest with HEAD — which always goes to the
	// origin — is answered from the copy the cache holds, served stale.
	outage.Store(true)
	for i := 0; i < 3; i++ {
		req, _ := http.NewRequest("HEAD", srv.URL+"/stories", nil)
		req.Header.Set("User-Agent", "UptimeProbe/2.0")
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}

	// Analyze the edge's own log.
	st.mu.Lock()
	defer st.mu.Unlock()
	logs := st.logs
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
		st.faulty.Faults(), st.faulty.Fetches(), st.origin.Obs.Retries.Value(),
		st.edge.Obs.StaleServes.Value(), st.breaker.Opens())
	fmt.Printf("request trace: %d spans retained (last %d requests), %d dropped by the retention window\n",
		len(st.edge.Trace.Spans()), st.edge.Trace.Limit, st.edge.Trace.Dropped())

	// With -livechar the same log was also characterized live; show the
	// streaming view next to the batch one.
	if st.char != nil {
		snap := st.char.Snapshot()
		fmt.Printf("\nlive characterization (%s/charz): %d events, %d drops\n",
			admin.URL, snap.Events, snap.Drops)
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

	// Scrape our own admin endpoint to show the zero-to-metrics path.
	fmt.Printf("\nsample of %s/metrics:\n", admin.URL)
	printScrapeSample(admin.URL + "/metrics")
}

// printScrapeSample fetches a Prometheus endpoint and prints its edge_*
// and resilience_* samples (skipping comment lines and the summaries'
// quantile series).
func printScrapeSample(url string) {
	resp, err := http.Get(url)
	if err != nil {
		logger.Warn("scrape failed", "err", err)
		return
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if (strings.HasPrefix(line, "edge_") || strings.HasPrefix(line, "resilience_")) &&
			!strings.Contains(line, `quantile="`) {
			fmt.Printf("  %s\n", line)
		}
	}
}

func edgeCache() *cdnjson.EdgeCache {
	return edge.NewCache(32<<20, time.Minute, 4)
}

// appClient mimics the Table 1 flow: GET the manifest, decode it, then
// GET a few referenced articles.
func appClient(base string, id int) {
	ua := fmt.Sprintf("NewsApp/3.1 (iPhone; iOS 12.2; client %d)", id)
	get := func(path string) []byte {
		req, err := http.NewRequest("GET", base+path, nil)
		if err != nil {
			logger.Error("building request", "client", id, "err", err)
			os.Exit(1)
		}
		req.Header.Set("User-Agent", ua)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			logger.Warn("request failed", "client", id, "err", err)
			return nil
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return body
	}
	manifest := get("/stories")
	var stories []struct {
		ID int `json:"article_id"`
	}
	if err := json.Unmarshal(manifest, &stories); err != nil {
		logger.Warn("bad manifest", "client", id, "err", err)
		return
	}
	for i, s := range stories {
		if i >= 3+id%3 {
			break
		}
		get(fmt.Sprintf("/article/%d", s.ID))
		time.Sleep(5 * time.Millisecond)
	}
}
