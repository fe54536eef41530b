// Package replay drives recorded CDN log traffic against a live HTTP
// endpoint as an open-loop load generator: requests are scheduled from
// the recorded timeline (or a fixed rate) regardless of how fast the
// server answers, and latency is measured from each request's
// *intended* start time. That is the coordinated-omission-safe
// discipline (wrk2, HdrHistogram): a closed-loop harness that measures
// only per-response wall time silently pauses the workload whenever
// the server stalls, so queue buildup never shows up in the recorded
// tail — exactly the signal a latency SLO is supposed to catch.
//
// Per-request latencies land in obs.HDRHistogram instances — one
// coordinated-omission-safe (intended start), one naive (service
// time), plus per-status and per-MIME breakdowns — and a periodic
// progress line reports live req/s, in-flight, and p50/p99/p999.
package replay

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/logfmt"
	"repro/internal/obs"
)

// Config parameterizes a replay run.
type Config struct {
	// Target is the base URL ("http://127.0.0.1:8080") that replaces
	// each record's scheme and host; required.
	Target string
	// Speed divides the recorded inter-arrival gaps (60 = one recorded
	// hour replays in one minute). Values <= 0 default to 1. Ignored
	// when Rate is set.
	Speed float64
	// Rate, when > 0, replaces the recorded timeline with a fixed
	// open-loop arrival rate in requests per second; records are
	// replayed in timestamp order and looped when Duration outlasts
	// them.
	Rate float64
	// Concurrency bounds in-flight requests (default 16). Arrivals
	// beyond it queue — and the queue wait is visible in the
	// intended-start latency, which is the point.
	Concurrency int
	// Duration stops scheduling new requests after this much wall
	// time; 0 plays the records once through.
	Duration time.Duration
	// Warmup excludes requests whose intended start falls within this
	// initial window from the recorded statistics (they are still
	// sent: caches fill, connections establish, JITs warm).
	Warmup time.Duration
	// Timeout bounds each request (default 10 s).
	Timeout time.Duration
	// Client optionally overrides the HTTP client (tests inject one).
	Client *http.Client
	// Logger, when non-nil, receives a periodic progress line (req/s,
	// in-flight, queue depth, p50/p99/p999) every ProgressEvery.
	Logger *obs.Logger
	// ProgressEvery is the progress-line period (default 1 s).
	ProgressEvery time.Duration
	// Registry, when non-nil, receives live replay_* metrics:
	// per-status request counters, transport errors, in-flight gauge,
	// and intended-latency HDR summaries.
	Registry *obs.Registry
}

func (c *Config) sanitize() error {
	if c.Target == "" {
		return fmt.Errorf("replay: Config.Target required")
	}
	if c.Speed <= 0 {
		c.Speed = 1
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 16
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: c.Timeout}
	}
	if c.ProgressEvery <= 0 {
		c.ProgressEvery = time.Second
	}
	return nil
}

// Result summarizes a replay run. The histograms and per-class maps
// cover the measurement window (after Warmup); the top-level counters
// cover the whole run.
type Result struct {
	// Offered counts requests scheduled (enqueued); Sent counts
	// requests actually issued; Errors counts transport failures, a
	// response body cut short among them; Dropped counts scheduled
	// requests abandoned on cancellation.
	Offered, Sent, Errors, Dropped int64
	// Measured and MeasuredErrors count post-warmup completions and
	// transport failures — the population the histograms describe and
	// the error budget is evaluated against.
	Measured, MeasuredErrors int64
	// Latency is the coordinated-omission-safe distribution: time from
	// each request's intended start (per the schedule) to its
	// completion, in nanoseconds.
	Latency *obs.HDRHistogram
	// Service is the naive per-response distribution: time from the
	// moment a worker actually issued the request to its completion.
	// Under queueing, Latency's tail diverges from Service's — the
	// difference IS the coordinated omission a closed-loop harness
	// hides.
	Service *obs.HDRHistogram
	// Lag is how late the generator ran: time from each request's
	// intended start to the moment a worker issued it — the pacer's
	// lateness plus any wait for a free worker. Latency ≈ Lag + Service
	// request by request, so a Lag far below Latency's median says the
	// median is the server's; a Lag near it says it is the harness's.
	Lag *obs.HDRHistogram
	// Status tallies response status codes; StatusLatency holds one
	// intended-latency histogram per status code.
	Status        map[int]int64
	StatusLatency map[int]*obs.HDRHistogram
	// MIME tallies normalized response Content-Types; MIMELatency
	// holds one intended-latency histogram per type.
	MIME        map[string]int64
	MIMELatency map[string]*obs.HDRHistogram
	// Node tallies responses by the X-Fleet-Node header a fleet front
	// tier stamps (empty when replaying a single edge); NodeLatency
	// holds one intended-latency histogram per node — the per-node view
	// that shows traffic shifting off a killed member and back.
	Node        map[string]int64
	NodeLatency map[string]*obs.HDRHistogram
	// Start is when scheduling began; Wall is the real elapsed time
	// until the last response.
	Start time.Time
	Wall  time.Duration
}

// ErrorRate returns the post-warmup transport error fraction.
func (r *Result) ErrorRate() float64 {
	if r.Measured == 0 {
		return 0
	}
	return float64(r.MeasuredErrors) / float64(r.Measured)
}

// AvailabilityErrorRate folds transport failures and 5xx responses
// into one unavailability fraction over the measurement window. A
// fleet front tier answers 502 when failover is exhausted — "up" by
// transport standards, down by any client's — so availability gates
// (slo metric "avail") use this instead of ErrorRate.
func (r *Result) AvailabilityErrorRate() float64 {
	if r.Measured == 0 {
		return 0
	}
	bad := r.MeasuredErrors
	for status, n := range r.Status {
		if status >= 500 {
			bad += n
		}
	}
	return float64(bad) / float64(r.Measured)
}

// AchievedRPS returns completed requests per second of wall time.
func (r *Result) AchievedRPS() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Sent) / r.Wall.Seconds()
}

// OfferedRPS returns scheduled requests per second of wall time — the
// open-loop demand; a gap between offered and achieved means the
// system under test could not keep up.
func (r *Result) OfferedRPS() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Offered) / r.Wall.Seconds()
}

func newResult() *Result {
	cfg := obs.LatencyHDRConfig()
	return &Result{
		Latency:       obs.NewHDRHistogram(cfg),
		Service:       obs.NewHDRHistogram(cfg),
		Lag:           obs.NewHDRHistogram(cfg),
		Status:        make(map[int]int64),
		StatusLatency: make(map[int]*obs.HDRHistogram),
		MIME:          make(map[string]int64),
		MIMELatency:   make(map[string]*obs.HDRHistogram),
		Node:          make(map[string]int64),
		NodeLatency:   make(map[string]*obs.HDRHistogram),
	}
}

// ticket is one scheduled request: the record to send and the instant
// the open-loop schedule intended it to start.
type ticket struct {
	rec      *logfmt.Record
	intended time.Time
}

// Run replays the records against the target under the open-loop
// schedule. It blocks until every issued request completes or ctx is
// canceled; cancelation stops scheduling, abandons the queue (counted
// as Dropped), and lets in-flight requests fail fast.
func Run(ctx context.Context, records []logfmt.Record, cfg Config) (*Result, error) {
	if err := cfg.sanitize(); err != nil {
		return nil, err
	}
	res := newResult()
	if len(records) == 0 {
		return res, nil
	}
	sorted := make([]*logfmt.Record, len(records))
	for i := range records {
		sorted[i] = &records[i]
	}
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Time.Before(sorted[j].Time)
	})

	var (
		mu       sync.Mutex // guards the Result maps
		wg       sync.WaitGroup
		queue    = make(chan ticket, 1<<15)
		inflight atomic.Int64
		offered  atomic.Int64
		sent     atomic.Int64
		errs     atomic.Int64
		dropped  atomic.Int64
		measured atomic.Int64
		mErrs    atomic.Int64
	)

	// Live Prometheus metrics, when a registry is wired. Plain
	// get-or-create metrics so repeated runs against one registry
	// accumulate instead of panicking.
	var (
		promInflight *obs.Gauge
		promErrors   *obs.Counter
		promLatency  *obs.HDRHistogram
		promService  *obs.HDRHistogram
	)
	if reg := cfg.Registry; reg != nil {
		reg.Help("replay_requests_total", "Replayed requests by response status.")
		reg.Help("replay_latency_seconds", "Replay latency quantiles by measurement kind (intended = coordinated-omission-safe, service = naive per-response).")
		promInflight = reg.Gauge("replay_inflight")
		promErrors = reg.Counter("replay_errors_total")
		promLatency = reg.HDR("replay_latency_seconds", obs.LatencyHDRConfig(), "kind", "intended")
		promService = reg.HDR("replay_latency_seconds", obs.LatencyHDRConfig(), "kind", "service")
	}

	start := time.Now()
	res.Start = start
	warmupEnd := start.Add(cfg.Warmup)

	record := func(t ticket, svcStart, end time.Time, status int, mime, node string, err error) {
		sent.Add(1)
		if err != nil {
			errs.Add(1)
			if promErrors != nil {
				promErrors.Inc()
			}
		}
		if t.intended.Before(warmupEnd) {
			return
		}
		intendedLat := end.Sub(t.intended).Nanoseconds()
		serviceLat := end.Sub(svcStart).Nanoseconds()
		measured.Add(1)
		res.Latency.Record(intendedLat)
		res.Service.Record(serviceLat)
		res.Lag.Record(svcStart.Sub(t.intended).Nanoseconds())
		if promLatency != nil {
			promLatency.Record(intendedLat)
			promService.Record(serviceLat)
		}
		if err != nil {
			mErrs.Add(1)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		res.Status[status]++
		sh := res.StatusLatency[status]
		if sh == nil {
			sh = obs.NewHDRHistogram(obs.LatencyHDRConfig())
			res.StatusLatency[status] = sh
		}
		sh.Record(intendedLat)
		if cfg.Registry != nil {
			cfg.Registry.Counter("replay_requests_total", "status", strconv.Itoa(status)).Inc()
		}
		if mime != "" {
			res.MIME[mime]++
			mh := res.MIMELatency[mime]
			if mh == nil {
				mh = obs.NewHDRHistogram(obs.LatencyHDRConfig())
				res.MIMELatency[mime] = mh
			}
			mh.Record(intendedLat)
		}
		if node != "" {
			res.Node[node]++
			nh := res.NodeLatency[node]
			if nh == nil {
				nh = obs.NewHDRHistogram(obs.LatencyHDRConfig())
				res.NodeLatency[node] = nh
			}
			nh.Record(intendedLat)
		}
	}

	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range queue {
				if ctx.Err() != nil {
					dropped.Add(1)
					continue
				}
				inflight.Add(1)
				if promInflight != nil {
					promInflight.Inc()
				}
				svcStart := time.Now()
				status, mime, node, err := send(ctx, cfg, t.rec)
				end := time.Now()
				inflight.Add(-1)
				if promInflight != nil {
					promInflight.Dec()
				}
				record(t, svcStart, end, status, mime, node, err)
			}
		}()
	}

	// Progress reporter: live rate, concurrency, and tail while the
	// run is in flight.
	progressDone := make(chan struct{})
	var progressWG sync.WaitGroup
	if cfg.Logger != nil {
		progressWG.Add(1)
		go func() {
			defer progressWG.Done()
			tick := time.NewTicker(cfg.ProgressEvery)
			defer tick.Stop()
			var lastSent int64
			var lastAt = start
			for {
				select {
				case <-progressDone:
					return
				case now := <-tick.C:
					s := sent.Load()
					rps := float64(s-lastSent) / now.Sub(lastAt).Seconds()
					lastSent, lastAt = s, now
					cfg.Logger.Info("replay progress",
						"sent", s,
						"rps", fmt.Sprintf("%.0f", rps),
						"inflight", inflight.Load(),
						"queued", len(queue),
						"errors", errs.Load(),
						"p50_ms", hdrMs(res.Latency, 0.50),
						"p99_ms", hdrMs(res.Latency, 0.99),
						"p999_ms", hdrMs(res.Latency, 0.999),
						"lag_p99_ms", hdrMs(res.Lag, 0.99),
					)
				}
			}
		}()
	}

	var deadline time.Time
	if cfg.Duration > 0 {
		deadline = start.Add(cfg.Duration)
	}
	base := sorted[0].Time
	var pace pacer
	defer pace.close()
dispatch:
	for i := 0; ; i++ {
		var rec *logfmt.Record
		var intended time.Time
		if cfg.Rate > 0 {
			if cfg.Duration <= 0 && i >= len(sorted) {
				break
			}
			rec = sorted[i%len(sorted)]
			intended = start.Add(time.Duration(float64(i) / cfg.Rate * float64(time.Second)))
		} else {
			if i >= len(sorted) {
				break
			}
			rec = sorted[i]
			intended = start.Add(time.Duration(float64(rec.Time.Sub(base)) / cfg.Speed))
		}
		if !deadline.IsZero() && intended.After(deadline) {
			break
		}
		if pace.wait(ctx, intended) != nil {
			break dispatch
		}
		select {
		case queue <- ticket{rec: rec, intended: intended}:
			offered.Add(1)
		case <-ctx.Done():
			break dispatch
		}
	}
	close(queue)
	wg.Wait()
	close(progressDone)
	progressWG.Wait()

	res.Offered = offered.Load()
	res.Sent = sent.Load()
	res.Errors = errs.Load()
	res.Dropped = dropped.Load()
	res.Measured = measured.Load()
	res.MeasuredErrors = mErrs.Load()
	res.Wall = time.Since(start)
	return res, ctx.Err()
}

// hdrMs formats a quantile of h in milliseconds for progress lines.
func hdrMs(h *obs.HDRHistogram, q float64) string {
	return fmt.Sprintf("%.1f", float64(h.Quantile(q))/1e6)
}

// send issues one request, preserving method, path+query, user agent,
// and the record's client identity (X-Client-Id, which a defending edge
// configured with a trusted ClientIDHeader keys its per-client state
// on — every replayed request otherwise shares one socket), and returns
// the status, normalized response MIME type, and the answering fleet
// node (X-Fleet-Node; empty against a single edge). A body that ends
// in an error — a connection dropped after the status line, a front tier
// aborting a response it had begun — is the request's error: a reply
// that lost bytes is not a fast 200.
func send(ctx context.Context, cfg Config, rec *logfmt.Record) (int, string, string, error) {
	url := cfg.Target + rec.Path()
	req, err := http.NewRequestWithContext(ctx, rec.Method, url, nil)
	if err != nil {
		return 0, "", "", err
	}
	if rec.UserAgent != "" {
		req.Header.Set("User-Agent", rec.UserAgent)
	}
	req.Header.Set("X-Client-Id", fmt.Sprintf("%016x", rec.ClientID))
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return 0, "", "", err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, "", "", fmt.Errorf("reading response body: %w", err)
	}
	return resp.StatusCode, normalizeMIME(resp.Header.Get("Content-Type")),
		resp.Header.Get("X-Fleet-Node"), nil
}

// normalizeMIME strips parameters and lowercases a Content-Type header
// ("application/json; charset=utf-8" -> "application/json").
func normalizeMIME(ct string) string {
	ct, _, _ = strings.Cut(ct, ";")
	return strings.ToLower(strings.TrimSpace(ct))
}
