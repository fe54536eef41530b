// Package cdnjson is the public API of the reproduction of
// "Characterizing JSON Traffic Patterns on a CDN" (IMC '19).
//
// It re-exports the stable surface of the internal packages as type
// aliases plus convenience constructors, organized along the paper:
//
//   - Log records and codecs (the CDN edge log schema, §3.1)
//   - Synthetic workload generation (stand-in for the Akamai datasets)
//   - Taxonomy characterization (§4: devices, methods, sizes, caching)
//   - Periodicity detection (§5.1)
//   - Ngram request prediction and URL clustering (§5.2)
//   - Edge-cache simulation and prediction-driven prefetching
//   - Edge↔origin resilience: fault injection, retries, breakers,
//     serve-stale degradation
//
// The runnable entry points live in cmd/ (one directory per tool; the
// README's tools table lists them). The Example functions walk through
// this API; go test runs them and checks their output.
package cdnjson

import (
	"io"
	"time"

	"repro/internal/anomaly"
	"repro/internal/core"
	"repro/internal/domaincat"
	"repro/internal/edge"
	"repro/internal/experiments"
	"repro/internal/flows"
	"repro/internal/logfmt"
	"repro/internal/ngram"
	"repro/internal/periodicity"
	"repro/internal/prefetch"
	"repro/internal/resilience"
	"repro/internal/sched"
	"repro/internal/synth"
	"repro/internal/taxonomy"
	"repro/internal/uastring"
	"repro/internal/urlkit"
)

// Log records and codecs.
type (
	// Record is one edge-server request log line.
	Record = logfmt.Record
	// CacheStatus is the edge cache disposition of a response.
	CacheStatus = logfmt.CacheStatus
	// LogWriter streams records to an io.Writer.
	LogWriter = logfmt.Writer
	// LogReader streams records from an io.Reader.
	LogReader = logfmt.Reader
	// DatasetSummary aggregates Table 2-style dataset statistics.
	DatasetSummary = logfmt.DatasetSummary
)

// Cache dispositions.
const (
	CacheUncacheable = logfmt.CacheUncacheable
	CacheHit         = logfmt.CacheHit
	CacheMiss        = logfmt.CacheMiss
)

// Log formats.
const (
	FormatTSV   = logfmt.FormatTSV
	FormatJSONL = logfmt.FormatJSONL
)

// NewLogWriter returns a buffered log writer in the given format.
func NewLogWriter(w io.Writer, format logfmt.Format) *LogWriter {
	return logfmt.NewWriter(w, format)
}

// NewLogReader returns a log reader (gzip detected automatically).
func NewLogReader(r io.Reader, format logfmt.Format) (*LogReader, error) {
	return logfmt.NewReader(r, format)
}

// Workload generation.
type (
	// GeneratorConfig parameterizes the synthetic CDN workload.
	GeneratorConfig = synth.Config
	// SourceMix sets traffic source shares (Fig. 3).
	SourceMix = synth.SourceMix
	// MonthCounter is one month of the Fig. 1 trend series.
	MonthCounter = synth.MonthCounter
)

// ShortTermConfig and LongTermConfig return scaled Table 2 presets.
func ShortTermConfig(seed uint64, scale float64) GeneratorConfig {
	return synth.ShortTermConfig(seed, scale)
}

// LongTermConfig returns the narrow, day-long preset.
func LongTermConfig(seed uint64, scale float64) GeneratorConfig {
	return synth.LongTermConfig(seed, scale)
}

// Generate streams the synthetic dataset to emit.
func Generate(cfg GeneratorConfig, emit func(*Record) error) error {
	return synth.Generate(cfg, emit)
}

// GenerateRecords materializes a synthetic dataset in memory.
func GenerateRecords(cfg GeneratorConfig) ([]Record, error) {
	return core.Collect(core.SynthSource(cfg))
}

// Characterization (§4).
type (
	// Characterization aggregates the §4 statistics.
	Characterization = taxonomy.Characterization
	// DomainCacheability aggregates the Fig. 4 heatmap inputs.
	DomainCacheability = taxonomy.DomainCacheability
	// DeviceType is the traffic-source device taxonomy.
	DeviceType = uastring.DeviceType
	// Category is a domain industry category.
	Category = domaincat.Category
)

// Device types.
const (
	DeviceUnknown  = uastring.DeviceUnknown
	DeviceMobile   = uastring.DeviceMobile
	DeviceDesktop  = uastring.DeviceDesktop
	DeviceEmbedded = uastring.DeviceEmbedded
)

// NewCharacterization returns an empty §4 aggregate; feed records with
// ObserveAny.
func NewCharacterization() *Characterization { return taxonomy.NewCharacterization() }

// ClassifyUserAgent maps a raw User-Agent header to its traffic source.
func ClassifyUserAgent(raw string) uastring.Class { return uastring.Classify(raw) }

// Periodicity (§5.1).
type (
	// PeriodicityConfig parameterizes the §5.1 analysis.
	PeriodicityConfig = periodicity.Config
	// PeriodicityResult is the dataset-level outcome.
	PeriodicityResult = periodicity.Result
	// FlowExtractor builds object and client-object flows from records.
	FlowExtractor = flows.Extractor
)

// NewFlowExtractor returns an extractor with the paper's flow filters.
func NewFlowExtractor() *FlowExtractor { return flows.NewExtractor() }

// DefaultPeriodicityConfig returns the paper's §5.1 parameters.
func DefaultPeriodicityConfig() PeriodicityConfig { return periodicity.DefaultConfig() }

// AnalyzePeriodicity runs the §5.1 pipeline over extracted flows.
func AnalyzePeriodicity(fl []*flows.ObjectFlow, totalRequests int64, cfg PeriodicityConfig) *PeriodicityResult {
	return periodicity.Analyze(fl, totalRequests, cfg)
}

// Prediction (§5.2).
type (
	// PredictionModel is the backoff ngram model.
	PredictionModel = ngram.Model
	// Sequencer builds per-client URL sequences with a train/test split.
	Sequencer = ngram.Sequencer
)

// NewPredictionModel returns a model conditioning on up to order
// previous requests.
func NewPredictionModel(order int) *PredictionModel { return ngram.NewModel(order) }

// NewSequencer returns a sequence builder with the paper's defaults.
func NewSequencer() *Sequencer { return ngram.NewSequencer() }

// ClusterURL maps a URL to its Klotski-style cluster template.
func ClusterURL(raw string) string { return urlkit.Cluster(raw) }

// Edge simulation and prefetching.
type (
	// EdgeCache is a sharded LRU+TTL cache.
	EdgeCache = edge.Cache
	// EdgePool is a consistent-hash pool of edge servers.
	EdgePool = edge.Pool
	// HTTPEdge is a real net/http caching edge server.
	HTTPEdge = edge.HTTPEdge
	// PrefetchConfig parameterizes the prefetch simulation.
	PrefetchConfig = prefetch.Config
	// PrefetchPredictor is what the prefetch simulation predicts with: a
	// PredictionModel or a TimedPredictionModel.
	PrefetchPredictor = prefetch.Predictor
	// PrefetchComparison is a baseline-vs-prefetch outcome pair; its
	// Prefetch.Push accounts server push of the same predictions.
	PrefetchComparison = prefetch.Comparison
)

// NewEdgePool creates n edge servers with per-server cache capacity.
func NewEdgePool(n int, capacityBytes int64, ttl time.Duration) *EdgePool {
	return edge.NewPool(n, capacityBytes, ttl)
}

// Edge↔origin resilience.
type (
	// FaultyOrigin injects seeded, reproducible origin failures.
	FaultyOrigin = resilience.FaultyOrigin
	// ResilientOrigin adds timeouts, jittered retries, and a breaker.
	ResilientOrigin = resilience.ResilientOrigin
	// CircuitBreaker is a three-state per-origin circuit breaker.
	CircuitBreaker = resilience.Breaker
	// RetryBackoff is capped exponential backoff with full jitter.
	RetryBackoff = resilience.Backoff
)

// ComparePrefetch replays records through identical edges with and
// without ngram prefetching. A TimedPredictionModel skips predictions
// expected to arrive after the cache TTL.
func ComparePrefetch(pred PrefetchPredictor, cfg PrefetchConfig, records func(func(*Record))) PrefetchComparison {
	return prefetch.Compare(pred, cfg, records)
}

// Anomaly detection.
type (
	// RequestAnomalyDetector flags improbable requests (§5.2).
	RequestAnomalyDetector = anomaly.RequestDetector
	// PeriodAnomalyDetector flags off-period arrivals (§5.1).
	PeriodAnomalyDetector = anomaly.PeriodDetector
)

// NewRequestAnomalyDetector wraps a trained model.
func NewRequestAnomalyDetector(m *PredictionModel) *RequestAnomalyDetector {
	return anomaly.NewRequestDetector(m)
}

// Scheduling (the paper's deprioritization proposal).
type (
	// SchedRequest is one unit of edge work for the scheduler.
	SchedRequest = sched.Request
	// SchedConfig selects workers and queueing discipline.
	SchedConfig = sched.Config
	// SchedResult reports per-class queueing latency.
	SchedResult = sched.Result
)

// Scheduling classes and disciplines.
const (
	ClassHuman    = sched.ClassHuman
	ClassMachine  = sched.ClassMachine
	FIFO          = sched.FIFO
	PriorityHuman = sched.PriorityHuman
)

// SimulateScheduling runs a request stream through the edge scheduler.
func SimulateScheduling(reqs []SchedRequest, cfg SchedConfig) (SchedResult, error) {
	return sched.Simulate(reqs, cfg)
}

// CompareScheduling contrasts FIFO with human-priority scheduling.
func CompareScheduling(reqs []SchedRequest, workers int) (fifo, prio SchedResult, err error) {
	return sched.Compare(reqs, workers)
}

// Timed prediction (the paper's interarrival future work).
type (
	// TimedPredictionModel augments the ngram model with per-transition
	// interarrival estimates; ComparePrefetch over one prefetches only
	// predictions expected to arrive within the cache TTL.
	TimedPredictionModel = ngram.TimedModel
	// TimedStep is one (URL, time) request in a timed client flow.
	TimedStep = ngram.Step
)

// NewTimedPredictionModel returns a timed model of the given order.
func NewTimedPredictionModel(order int) *TimedPredictionModel { return ngram.NewTimedModel(order) }

// Experiments.
type (
	// ExperimentConfig sizes the paper-reproduction experiments.
	ExperimentConfig = experiments.Config
	// ExperimentRunner executes them.
	ExperimentRunner = experiments.Runner
)

// NewExperimentRunner returns a runner over the given configuration.
func NewExperimentRunner(cfg ExperimentConfig) *ExperimentRunner {
	return experiments.NewRunner(cfg)
}

// DefaultExperimentConfig returns the laptop-scale experiment defaults.
func DefaultExperimentConfig() ExperimentConfig { return experiments.DefaultConfig() }
