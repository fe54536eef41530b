// Package periodicity runs the paper's §5.1 analysis: it detects
// significant periods in object flows and client-object flows with the
// permutation-thresholded autocorrelation+Fourier detector (internal/dsp)
// and labels a client flow periodic with respect to its object when both
// periods exist and match. Its outputs regenerate Fig. 5 (histogram of
// object periods), Fig. 6 (CDF of the share of periodic clients per
// object), and the §5.1 summary statistics (share of periodic requests,
// their cacheability and upload mix).
package periodicity

import (
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dsp"
	"repro/internal/flows"
	"repro/internal/stats"
)

// Config parameterizes the analysis.
type Config struct {
	// Detector is the period-detection configuration (x permutations,
	// lag bounds).
	Detector dsp.DetectorConfig
	// SampleBin is the signal sampling interval; the paper uses 1 s
	// because sub-second periods are unreliable under network jitter.
	SampleBin time.Duration
	// Seed drives the permutation RNG.
	Seed uint64
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		Detector:  dsp.DefaultDetectorConfig(),
		SampleBin: time.Second,
		Seed:      1,
	}
}

const (
	// maxBins caps signal length per flow to bound memory (~36 h at 1 s).
	maxBins = 1 << 17
	// matchTolerance is the relative tolerance when matching a client
	// period against its object period (0.15 accepts ±15%).
	matchTolerance = 0.15
)

// ObjectResult is the per-object outcome.
type ObjectResult struct {
	URL string
	// ObjectPeriod is the detected object-flow period; 0 when none.
	ObjectPeriod time.Duration
	// TotalClients is the number of (filter-surviving) client flows.
	TotalClients int
	// PeriodicClients is the number of client flows whose own period
	// matches the object period.
	PeriodicClients int
	// PeriodicRequests counts requests belonging to periodic client
	// flows; TotalRequests counts all requests to the object.
	PeriodicRequests int
	TotalRequests    int
	// UncacheablePeriodic and UploadPeriodic count the periodic requests
	// that were uncacheable and uploads, for the §5.1 result that
	// periodic traffic is 56.2% uncacheable and 78% upload.
	UncacheablePeriodic int
	UploadPeriodic      int
}

// PeriodicClientShare returns the fraction of the object's clients that
// are periodic.
func (r *ObjectResult) PeriodicClientShare() float64 {
	if r.TotalClients == 0 {
		return 0
	}
	return float64(r.PeriodicClients) / float64(r.TotalClients)
}

// Result is the dataset-level outcome.
type Result struct {
	Objects []ObjectResult
	// TotalRequests is the number of requests across all analyzed flows
	// plus the unanalyzed remainder supplied via SetTotalRequests.
	TotalRequests int64
	// PeriodicRequests is the number of requests in periodic client
	// flows.
	PeriodicRequests int64
	// UncacheablePeriodic / UploadPeriodic aggregate the periodic
	// request properties.
	UncacheablePeriodic int64
	UploadPeriodic      int64
}

// PeriodicShare returns periodic requests as a fraction of all requests
// (paper: 6.3%).
func (r *Result) PeriodicShare() float64 {
	if r.TotalRequests == 0 {
		return 0
	}
	return float64(r.PeriodicRequests) / float64(r.TotalRequests)
}

// PeriodicUncacheableShare returns the uncacheable fraction of periodic
// requests (paper: 56.2%).
func (r *Result) PeriodicUncacheableShare() float64 {
	if r.PeriodicRequests == 0 {
		return 0
	}
	return float64(r.UncacheablePeriodic) / float64(r.PeriodicRequests)
}

// PeriodicUploadShare returns the upload fraction of periodic requests
// (paper: 78%).
func (r *Result) PeriodicUploadShare() float64 {
	if r.PeriodicRequests == 0 {
		return 0
	}
	return float64(r.UploadPeriodic) / float64(r.PeriodicRequests)
}

// PeriodicObjects returns the results for objects with a detected
// period.
func (r *Result) PeriodicObjects() []ObjectResult {
	var out []ObjectResult
	for _, o := range r.Objects {
		if o.ObjectPeriod > 0 {
			out = append(out, o)
		}
	}
	return out
}

// PeriodHistogram bins the detected object periods (Fig. 5). Edges are
// in seconds; the paper's spikes sit at 30 s, 1 m, 2 m, 3 m, 10 m, 15 m,
// and 30 m.
func (r *Result) PeriodHistogram(edges []float64) *stats.Histogram {
	h := stats.NewHistogram(edges)
	for _, o := range r.PeriodicObjects() {
		h.Add(o.ObjectPeriod.Seconds())
	}
	return h
}

// PeriodicClientCDF returns the empirical CDF of the per-object share of
// periodic clients (Fig. 6).
func (r *Result) PeriodicClientCDF() *stats.ECDF {
	var e stats.ECDF
	for _, o := range r.PeriodicObjects() {
		e.Add(o.PeriodicClientShare())
	}
	return &e
}

// ShareAboveMajority returns the fraction of periodic objects where more
// than half the clients are periodic (paper: 20%).
func (r *Result) ShareAboveMajority() float64 {
	objs := r.PeriodicObjects()
	if len(objs) == 0 {
		return 0
	}
	n := 0
	for _, o := range objs {
		if o.PeriodicClientShare() > 0.5 {
			n++
		}
	}
	return float64(n) / float64(len(objs))
}

// Analyze runs the full §5.1 pipeline over the extracted object flows,
// fanning objects out across CPU cores. Each object's permutations use
// an RNG seeded from cfg.Seed and the object URL, so results are
// deterministic regardless of scheduling. totalRequests should be the
// total request count of the dataset the flows were extracted from
// (including requests filtered out of flows), so PeriodicShare is
// relative to all traffic as in the paper.
func Analyze(objFlows []*flows.ObjectFlow, totalRequests int64, cfg Config) *Result {
	res := &Result{
		TotalRequests: totalRequests,
		Objects:       make([]ObjectResult, len(objFlows)),
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(objFlows) {
		workers = len(objFlows)
	}
	if workers < 1 {
		workers = 1
	}
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One detector per worker, kept across all the flows it
			// analyses: FFT tables are built once per size, not per flow.
			var det dsp.Detector
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(objFlows) {
					return
				}
				of := objFlows[i]
				h := fnv.New64a()
				h.Write([]byte(of.URL))
				rng := stats.NewRNG(cfg.Seed ^ h.Sum64())
				res.Objects[i] = analyzeObject(&det, of, cfg, rng)
			}
		}()
	}
	wg.Wait()
	for i := range res.Objects {
		o := &res.Objects[i]
		res.PeriodicRequests += int64(o.PeriodicRequests)
		res.UncacheablePeriodic += int64(o.UncacheablePeriodic)
		res.UploadPeriodic += int64(o.UploadPeriodic)
	}
	sort.Slice(res.Objects, func(i, j int) bool { return res.Objects[i].URL < res.Objects[j].URL })
	return res
}

func analyzeObject(det *dsp.Detector, of *flows.ObjectFlow, cfg Config, rng *stats.RNG) ObjectResult {
	out := ObjectResult{
		URL:           of.URL,
		TotalClients:  len(of.Clients),
		TotalRequests: of.NumRequests(),
	}
	objPeriod, ok := detectPeriod(det, of.AllRequests(), cfg, rng)
	if !ok {
		return out
	}
	out.ObjectPeriod = objPeriod
	for _, cf := range of.Clients {
		cliPeriod, ok := detectPeriod(det, cf.Requests, cfg, rng)
		if !ok || !periodsMatch(objPeriod, cliPeriod, matchTolerance) {
			continue
		}
		out.PeriodicClients++
		out.PeriodicRequests += len(cf.Requests)
		for _, q := range cf.Requests {
			if !q.Cached {
				out.UncacheablePeriodic++
			}
			if q.Upload {
				out.UploadPeriodic++
			}
		}
	}
	return out
}

// detectPeriod bins a request sequence and runs the dsp detector,
// translating the lag back into wall-clock duration.
func detectPeriod(det *dsp.Detector, reqs []flows.Request, cfg Config, rng *stats.RNG) (time.Duration, bool) {
	signal := flows.BinCounts(reqs, cfg.SampleBin, maxBins)
	if signal == nil {
		return 0, false
	}
	found, ok, err := det.Detect(signal, cfg.Detector, rng)
	if err != nil || !ok {
		return 0, false
	}
	return time.Duration(found.Period) * cfg.SampleBin, true
}

func periodsMatch(a, b time.Duration, tol float64) bool {
	if a <= 0 || b <= 0 {
		return false
	}
	diff := math.Abs(a.Seconds() - b.Seconds())
	return diff <= tol*a.Seconds()
}

// DefaultPeriodEdges returns histogram edges (seconds) whose nine bins
// are centered on the paper's spike intervals: 30s, 1m, 2m, 3m, 5m, 10m,
// 15m, 30m, 1h.
func DefaultPeriodEdges() []float64 {
	return []float64{45, 90, 150, 240, 420, 750, 1050, 2100, 3900}
}
