// Package livechar is the live traffic-characterization plane: it turns
// the paper's offline analyses — response-size and inter-arrival
// distributions (§4), object/domain popularity, periodicity detection
// (§5.1), and ngram next-request prediction (§5.2) — into streaming
// operators that run against the edge request stream while it flows.
//
// The edge hot path calls Observe with each request record; after
// Start, that is a single non-blocking channel send (overflow is
// dropped and counted, never blocking the request path), and a
// consumer goroutine folds events into per-window sketches:
//
//   - response-size and inter-arrival quantiles via mergeable
//     obs.HDRHistogram sketches (cumulative for Prometheus, windowed
//     for /charz),
//   - object and domain popularity via Space-Saving heavy-hitter
//     sketches with per-entry error bounds,
//   - a per-bin request-rate ring analyzed by the §5.1 permutation
//     detector for live periodicities,
//   - an online backoff ngram model exposing a live predictability
//     (top-K hit rate) and entropy gauge.
//
// Windows rotate on event time (record timestamps), so replayed
// historical streams characterize identically to live traffic and
// tests are deterministic. Results surface three ways: livechar_*
// metrics on an obs.Registry, a JSON Snapshot (the /charz endpoint),
// and periodic char-<id>.json files folded into the run manifest.
// Snapshots from multiple nodes merge (MergeSnapshots) into one
// fleet-wide view, the property every sketch here was chosen for.
package livechar

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/logfmt"
	"repro/internal/obs"
)

// SnapshotSchema identifies the /charz and char-<id>.json payload.
const SnapshotSchema = "repro/livechar/v1"

// Config parameterizes the plane. The zero value is usable: 60 s
// windows over 1 s bins, top-10 popularity, order-3 ngram model.
type Config struct {
	// Window is the tumbling characterization window (event time).
	// Default 60 s.
	Window time.Duration
	// Bin is the request-rate sampling bin for periodicity detection —
	// the paper samples request counts at 1 s. Default 1 s.
	Bin time.Duration
	// Bins is how many rate bins the periodicity ring retains; it spans
	// Bins×Bin of signal (default 600 = 10 min at 1 s), independent of
	// window rotation so long periods stay detectable.
	Bins int
	// TopK is how many heavy hitters snapshots publish. Default 10.
	TopK int
	// Buffer is the async tap's channel capacity; overflow is dropped
	// and counted. Default 8192.
	Buffer int
	// NgramOrder is the prediction model's history length. Default 3.
	NgramOrder int
	// PredictK is the guess-set size for the live hit-rate gauge
	// (Table 3's K). Default 5.
	PredictK int
	// MaxClients bounds the per-client history table. Default 16384.
	MaxClients int
	// Seed drives the period detector's permutation RNG. Default 1.
	Seed uint64
	// Node labels this plane's snapshots in fleet merges.
	Node string
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = time.Minute
	}
	if c.Bin <= 0 {
		c.Bin = time.Second
	}
	if c.Bins <= 0 {
		c.Bins = 600
	}
	if c.TopK <= 0 {
		c.TopK = 10
	}
	if c.Buffer <= 0 {
		c.Buffer = 8192
	}
	if c.NgramOrder <= 0 {
		c.NgramOrder = 3
	}
	if c.PredictK <= 0 {
		c.PredictK = 5
	}
	if c.MaxClients <= 0 {
		c.MaxClients = 1 << 14
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// sizeHDRConfig covers response bodies from 1 B to 1 GiB at 2 sigfigs.
func sizeHDRConfig() obs.HDRConfig {
	return obs.HDRConfig{Lowest: 1, Highest: 1 << 30, SigFigs: 2, Unit: 1}
}

// interHDRConfig covers inter-arrival gaps up to 10 min, exposed in
// seconds.
func interHDRConfig() obs.HDRConfig {
	return obs.HDRConfig{Lowest: int64(time.Microsecond), Highest: int64(10 * time.Minute), SigFigs: 2, Unit: 1e-9}
}

// event is the compact projection of a request record the tap carries.
// The host is derived consumer-side from the URL so the producer path
// pays no parsing.
type event struct {
	tNS    int64
	client uint64
	url    string
	bytes  int64
}

// LiveChar is one node's characterization plane. Construct with New;
// call Observe from the edge request path. Until Start is called,
// Observe applies events inline (synchronously) — the mode batch
// replays and deterministic tests use; Start switches to the async
// tap. All exported methods are safe for concurrent use.
type LiveChar struct {
	cfg Config

	started atomic.Bool
	ch      chan event
	done    chan struct{}
	wg      sync.WaitGroup

	events    atomic.Int64 // applied into sketches
	drops     atomic.Int64 // tap overflow
	rotations atomic.Int64

	// Cumulative (process-lifetime) sketches, exposed on /metrics.
	// Lock-free: recorded directly in apply.
	cumSize  *obs.HDRHistogram
	cumInter *obs.HDRHistogram

	// mu guards everything below: the consumer (or inline Observe)
	// writes, Snapshot and metric closures read.
	mu         sync.Mutex
	winStartNS int64 // -1 until the first event
	lastTNS    int64 // previous event time for inter-arrival; -1 initially
	curSize    *obs.HDRHistogram
	curInter   *obs.HDRHistogram
	curObjects *SpaceSaving
	curDomains *SpaceSaving
	curEvents  int64
	last       *WindowStats // most recently completed window
	ring       *binRing
	pred       *predictor
	periods    []Period
	periodsVer int64 // ring version the cached periods were computed at
}

// maxVocab bounds the ngram model's interned vocabulary; further
// transitions stop training (predictions continue).
const maxVocab = 1 << 16

// New returns a plane for cfg (zero fields take defaults). Each
// Space-Saving sketch gets max(256, 8×TopK) counters, so its error bound
// is window-events/that.
func New(cfg Config) *LiveChar {
	cfg = cfg.withDefaults()
	capacity := max(256, 8*cfg.TopK)
	lc := &LiveChar{
		cfg:        cfg,
		cumSize:    obs.NewHDRHistogram(sizeHDRConfig()),
		cumInter:   obs.NewHDRHistogram(interHDRConfig()),
		curSize:    obs.NewHDRHistogram(sizeHDRConfig()),
		curInter:   obs.NewHDRHistogram(interHDRConfig()),
		curObjects: NewSpaceSaving(capacity),
		curDomains: NewSpaceSaving(capacity),
		ring:       newBinRing(cfg.Bin, cfg.Bins),
		pred:       newPredictor(cfg.NgramOrder, cfg.PredictK, maxVocab, cfg.MaxClients),
		winStartNS: -1,
		lastTNS:    -1,
		periods:    []Period{},
	}
	return lc
}

// Config returns the effective (defaulted) configuration.
func (lc *LiveChar) Config() Config { return lc.cfg }

// Start switches the plane to async mode: Observe becomes a
// non-blocking channel send and a consumer goroutine folds events into
// the sketches. Call Close to drain and stop.
func (lc *LiveChar) Start() {
	if lc.started.Swap(true) {
		return
	}
	lc.ch = make(chan event, lc.cfg.Buffer)
	lc.done = make(chan struct{})
	lc.wg.Add(1)
	go lc.consume()
}

// Close stops the consumer after draining buffered events. Observe
// calls racing Close may be dropped (counted); after Close returns,
// Observe applies inline again.
func (lc *LiveChar) Close() {
	if !lc.started.Load() || lc.done == nil {
		return
	}
	close(lc.done)
	lc.wg.Wait()
	lc.started.Store(false)
	lc.done = nil
}

func (lc *LiveChar) consume() {
	defer lc.wg.Done()
	for {
		select {
		case ev := <-lc.ch:
			lc.mu.Lock()
			lc.apply(ev)
			lc.mu.Unlock()
		case <-lc.done:
			for {
				select {
				case ev := <-lc.ch:
					lc.mu.Lock()
					lc.apply(ev)
					lc.mu.Unlock()
				default:
					return
				}
			}
		}
	}
}

// Observe taps one request record. Async mode never blocks: if the
// buffer is full the event is dropped and counted (livechar_drops_total
// is the plane's own back-pressure signal). The record is not retained.
func (lc *LiveChar) Observe(r *logfmt.Record) {
	ev := event{
		tNS:    r.Time.UnixNano(),
		client: r.ClientID,
		url:    r.URL,
		bytes:  r.Bytes,
	}
	if lc.started.Load() {
		select {
		case lc.ch <- ev:
		default:
			lc.drops.Add(1)
		}
		return
	}
	lc.mu.Lock()
	lc.apply(ev)
	lc.mu.Unlock()
}

// apply folds one event into the sketches. Caller holds mu.
func (lc *LiveChar) apply(ev event) {
	winNS := lc.cfg.Window.Nanoseconds()
	if lc.winStartNS < 0 {
		lc.winStartNS = ev.tNS - ev.tNS%winNS
	} else if ev.tNS >= lc.winStartNS+winNS {
		lc.rotate()
		lc.winStartNS = ev.tNS - ev.tNS%winNS
	}

	lc.events.Add(1)
	lc.curEvents++
	lc.cumSize.Record(ev.bytes)
	lc.curSize.Record(ev.bytes)
	if lc.lastTNS >= 0 {
		if dt := ev.tNS - lc.lastTNS; dt >= 0 {
			lc.cumInter.Record(dt)
			lc.curInter.Record(dt)
		}
	}
	if ev.tNS > lc.lastTNS {
		lc.lastTNS = ev.tNS
	}
	lc.curObjects.Observe(ev.url)
	if host := (&logfmt.Record{URL: ev.url}).Host(); host != "" {
		lc.curDomains.Observe(host)
	}
	lc.ring.add(ev.tNS, 1)
	lc.pred.observe(ev.client, ev.url)
}

// rotate completes the current window into last and resets the
// windowed sketches in place. Caller holds mu.
func (lc *LiveChar) rotate() {
	lc.last = lc.windowStats()
	lc.curSize.Reset()
	lc.curInter.Reset()
	lc.curObjects.Reset()
	lc.curDomains.Reset()
	lc.curEvents = 0
	lc.rotations.Add(1)
	lc.refreshPeriods()
}

// windowStats captures the in-progress window. Caller holds mu.
func (lc *LiveChar) windowStats() *WindowStats {
	w := &WindowStats{
		Start:        time.Unix(0, lc.winStartNS).UTC(),
		End:          time.Unix(0, lc.winStartNS+lc.cfg.Window.Nanoseconds()).UTC(),
		Events:       lc.curEvents,
		SizeHDR:      lc.curSize.Snapshot(),
		InterHDR:     lc.curInter.Snapshot(),
		TopObjects:   lc.curObjects.Top(lc.cfg.TopK),
		TopDomains:   lc.curDomains.Top(lc.cfg.TopK),
		SketchMin:    lc.curObjects.MinCount(),
		DomSketchMin: lc.curDomains.MinCount(),
	}
	w.fillQuantiles(lc.curSize, lc.curInter)
	return w
}

// refreshPeriods reruns detection if the rate ring changed since the
// cached result. The newest (still-filling) bin is trimmed so a
// half-full tail cannot masquerade as a rate drop, and so is a partial
// leading bin (the stream started mid-bin) — either one is a large
// aperiodic spike that can mask real periodicity. Caller holds mu.
func (lc *LiveChar) refreshPeriods() {
	if lc.ring.version == lc.periodsVer {
		return
	}
	_, bins := lc.ring.series()
	if len(bins) > 0 {
		bins = bins[:len(bins)-1]
	}
	if len(bins) > 0 && lc.ring.leadingPartial() {
		bins = bins[1:]
	}
	lc.periods = DetectPeriods(bins, lc.cfg.Bin, lc.cfg.Seed, 3)
	lc.periodsVer = lc.ring.version
}

// WindowStats is the characterization of one tumbling window.
type WindowStats struct {
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Events int64     `json:"events"`

	// SizeHDR and InterHDR are the mergeable sketch states (bytes and
	// nanoseconds); the *Quantiles fields are their human-readable
	// projections.
	SizeHDR        obs.HDRSnapshot        `json:"size_bytes_hdr"`
	InterHDR       obs.HDRSnapshot        `json:"interarrival_ns_hdr"`
	SizeQuantiles  []obs.HDRPercentileRow `json:"size_quantiles,omitempty"`
	InterQuantiles []obs.HDRPercentileRow `json:"interarrival_quantiles,omitempty"`

	// TopObjects and TopDomains are the Space-Saving heavy hitters;
	// each Count overestimates truth by at most its Err. SketchMin and
	// DomSketchMin are the sketches' minimum counters: the maximum
	// frequency any unlisted key can have (0 until the counter budget
	// fills), which is also the absent-node bound in fleet merges.
	TopObjects   []HeavyHitter `json:"top_objects"`
	TopDomains   []HeavyHitter `json:"top_domains"`
	SketchMin    int64         `json:"sketch_min_count,omitempty"`
	DomSketchMin int64         `json:"domain_sketch_min_count,omitempty"`
}

func (w *WindowStats) fillQuantiles(size, inter *obs.HDRHistogram) {
	if w.SizeHDR.Count > 0 {
		w.SizeQuantiles = size.Percentiles()
	}
	if w.InterHDR.Count > 0 {
		w.InterQuantiles = inter.Percentiles()
	}
}

// Snapshot is the full /charz payload: totals, the in-progress and
// last-completed windows, the rate-bin series with detected periods,
// and the live predictability stats. It is self-contained and
// mergeable across nodes (MergeSnapshots).
type Snapshot struct {
	Schema string   `json:"schema"`
	Node   string   `json:"node,omitempty"`
	Nodes  []string `json:"nodes,omitempty"` // set on merged snapshots

	WindowSec float64 `json:"window_sec"`
	BinSec    float64 `json:"bin_sec"`

	Events    int64 `json:"events"`
	Drops     int64 `json:"drops"`
	Rotations int64 `json:"rotations"`

	Current *WindowStats `json:"current,omitempty"`
	Last    *WindowStats `json:"last,omitempty"`

	// Periods are the significant periodicities of the rate signal
	// (empty when none — human-triggered traffic's common case).
	Periods []Period `json:"periods"`

	// Bins is the request-rate signal itself (oldest first, BinsStart
	// stamping the first bin) so merges and offline re-analysis can
	// recompute detection.
	BinsStart time.Time `json:"bins_start,omitempty"`
	Bins      []int64   `json:"bins,omitempty"`

	Predict PredictStats `json:"predict"`
}

// Snapshot captures the plane's current state.
func (lc *LiveChar) Snapshot() Snapshot {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.refreshPeriods()
	s := Snapshot{
		Schema:    SnapshotSchema,
		Node:      lc.cfg.Node,
		WindowSec: lc.cfg.Window.Seconds(),
		BinSec:    lc.cfg.Bin.Seconds(),
		Events:    lc.events.Load(),
		Drops:     lc.drops.Load(),
		Rotations: lc.rotations.Load(),
		Last:      lc.last,
		Periods:   append([]Period(nil), lc.periods...),
		Predict:   lc.pred.stats(),
	}
	if s.Periods == nil {
		s.Periods = []Period{}
	}
	if lc.winStartNS >= 0 {
		s.Current = lc.windowStats()
	}
	s.BinsStart, s.Bins = lc.ring.series()
	return s
}

// Handler serves the Snapshot as indented JSON — the /charz endpoint.
func (lc *LiveChar) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(lc.Snapshot())
	})
}

// Instrument registers the livechar_* metric families on reg. Every
// family has bounded cardinality: heavy hitters are published by rank
// label (never by URL), so a hostile URL space cannot explode the
// registry. Call once, before traffic. No-op on a nil registry.
func (lc *LiveChar) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Help("livechar_events_total", "Requests folded into the characterization sketches.")
	reg.CounterFunc("livechar_events_total", lc.events.Load)
	reg.Help("livechar_drops_total", "Requests dropped at the tap because the buffer was full.")
	reg.CounterFunc("livechar_drops_total", lc.drops.Load)
	reg.Help("livechar_window_rotations_total", "Completed characterization windows.")
	reg.CounterFunc("livechar_window_rotations_total", lc.rotations.Load)
	reg.Help("livechar_window_seconds", "Configured characterization window length.")
	reg.GaugeFunc("livechar_window_seconds", func() float64 { return lc.cfg.Window.Seconds() })
	reg.Help("livechar_bin_seconds", "Configured rate-sampling bin width.")
	reg.GaugeFunc("livechar_bin_seconds", func() float64 { return lc.cfg.Bin.Seconds() })

	reg.Help("livechar_size_bytes", "Response sizes (cumulative HDR sketch).")
	reg.RegisterHDR("livechar_size_bytes", lc.cumSize)
	reg.Help("livechar_interarrival_seconds", "Request inter-arrival gaps (cumulative HDR sketch).")
	reg.RegisterHDR("livechar_interarrival_seconds", lc.cumInter)

	reg.Help("livechar_period_seconds", "Strongest detected request-rate period (0 = none).")
	reg.GaugeFunc("livechar_period_seconds", func() float64 {
		lc.mu.Lock()
		defer lc.mu.Unlock()
		lc.refreshPeriods()
		if len(lc.periods) == 0 {
			return 0
		}
		return lc.periods[0].Seconds
	})
	reg.Help("livechar_period_acf", "Autocorrelation at the strongest detected period.")
	reg.GaugeFunc("livechar_period_acf", func() float64 {
		lc.mu.Lock()
		defer lc.mu.Unlock()
		if len(lc.periods) == 0 {
			return 0
		}
		return lc.periods[0].ACF
	})

	reg.Help("livechar_topk_count", "Request count of the rank-th most popular object in the last completed window (Space-Saving estimate).")
	for rank := 1; rank <= lc.cfg.TopK; rank++ {
		r := rank - 1
		reg.GaugeFunc("livechar_topk_count", func() float64 {
			lc.mu.Lock()
			defer lc.mu.Unlock()
			w := lc.last
			if w == nil {
				w = lc.windowStatsLight()
			}
			if w == nil || r >= len(w.TopObjects) {
				return 0
			}
			return float64(w.TopObjects[r].Count)
		}, "rank", fmt.Sprintf("%d", rank))
	}
	reg.Help("livechar_topk_min_count", "Space-Saving minimum counter: max frequency of any untracked object (error bound).")
	reg.GaugeFunc("livechar_topk_min_count", func() float64 {
		lc.mu.Lock()
		defer lc.mu.Unlock()
		if lc.last != nil {
			return float64(lc.last.SketchMin)
		}
		return float64(lc.curObjects.MinCount())
	})

	reg.Help("livechar_predict_observations_total", "Next-request predictions attempted by the online ngram model.")
	reg.CounterFunc("livechar_predict_observations_total", func() int64 {
		lc.mu.Lock()
		defer lc.mu.Unlock()
		return lc.pred.observations
	})
	reg.Help("livechar_predict_hits_total", "Predictions whose top-K guess set contained the actual next request.")
	reg.CounterFunc("livechar_predict_hits_total", func() int64 {
		lc.mu.Lock()
		defer lc.mu.Unlock()
		return lc.pred.hits
	})
	reg.Help("livechar_predict_hit_rate", "Live top-K next-request prediction accuracy (Table 3 estimate).")
	reg.GaugeFunc("livechar_predict_hit_rate", func() float64 {
		lc.mu.Lock()
		defer lc.mu.Unlock()
		return lc.pred.hitRate()
	})
	reg.Help("livechar_predict_entropy_bits", "Shannon entropy of the unigram next-request distribution.")
	reg.GaugeFunc("livechar_predict_entropy_bits", func() float64 {
		lc.mu.Lock()
		defer lc.mu.Unlock()
		return lc.pred.model.UnigramEntropyBits()
	})
	reg.Help("livechar_ngram_vocab", "Distinct URLs interned by the online ngram model.")
	reg.GaugeFunc("livechar_ngram_vocab", func() float64 {
		lc.mu.Lock()
		defer lc.mu.Unlock()
		return float64(lc.pred.model.VocabSize())
	})
}

// windowStatsLight returns current-window top objects without HDR
// snapshots — enough for the rank gauges before the first rotation.
// Caller holds mu.
func (lc *LiveChar) windowStatsLight() *WindowStats {
	if lc.winStartNS < 0 {
		return nil
	}
	return &WindowStats{
		TopObjects: lc.curObjects.Top(lc.cfg.TopK),
		SketchMin:  lc.curObjects.MinCount(),
	}
}

// WriteSnapshot writes the current snapshot to dir/char-<runID>-<seq>.json
// (creating dir if needed) and returns the path plus a manifest ledger
// step recording the write, so periodic characterization artifacts fold
// into the run manifest like any other experiment step.
func (lc *LiveChar) WriteSnapshot(dir, runID string, seq int) (string, obs.ManifestStep, error) {
	start := time.Now()
	snap := lc.Snapshot()
	if dir != "" && dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", obs.ManifestStep{}, fmt.Errorf("livechar: creating snapshot dir: %w", err)
		}
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return "", obs.ManifestStep{}, fmt.Errorf("livechar: encoding snapshot: %w", err)
	}
	data = append(data, '\n')
	path := filepath.Join(dir, fmt.Sprintf("char-%s-%d.json", runID, seq))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", obs.ManifestStep{}, fmt.Errorf("livechar: writing snapshot: %w", err)
	}
	step := obs.ManifestStep{
		Name:    "char-snapshot " + filepath.Base(path),
		Status:  "completed",
		WallNS:  int64(time.Since(start)),
		Records: snap.Events,
		Bytes:   int64(len(data)),
	}
	return path, step, nil
}
