package edge

import (
	"net/http"

	"repro/internal/obs"
	"repro/internal/sched"
)

// Instrumentation holds the pre-resolved request-level metrics an
// HTTPEdge reports into, so the serving hot path pays no registry
// lookups. Create one with NewInstrumentation (or HTTPEdge.Instrument,
// which also registers the edge cache's metrics).
type Instrumentation struct {
	// GETRequests etc. count served requests by method into
	// edge_requests_total{method=...}.
	GETRequests   *obs.Counter
	POSTRequests  *obs.Counter
	HEADRequests  *obs.Counter
	OtherRequests *obs.Counter
	// NotModified counts 304 responses to conditional requests
	// (edge_not_modified_total).
	NotModified *obs.Counter
	// BytesServed sums response body bytes written to clients
	// (edge_bytes_served_total).
	BytesServed *obs.Counter
	// OriginFetch is the origin round-trip latency distribution in
	// seconds (edge_origin_fetch_seconds).
	OriginFetch *obs.HDRHistogram
	// OriginErrors counts failed origin fetches
	// (edge_origin_errors_total).
	OriginErrors *obs.Counter
	// StaleServes counts responses served from an expired copy after an
	// origin failure (edge_stale_serves_total).
	StaleServes *obs.Counter
	// ShedMachine counts load-shed requests
	// (edge_shed_total{class="machine"}; human traffic is never shed).
	ShedMachine *obs.Counter
}

// NewInstrumentation registers the HTTPEdge request metrics in reg and
// returns them. Calling it twice with the same registry returns the
// same underlying metrics.
func NewInstrumentation(reg *obs.Registry) *Instrumentation {
	reg.Help("edge_requests_total", "Requests served by the edge, by method.")
	reg.Help("edge_bytes_served_total", "Response body bytes written to clients.")
	reg.Help("edge_origin_fetch_seconds", "Origin fetch round-trip latency.")
	reg.Help("edge_stale_serves_total", "Responses served stale after an origin failure.")
	reg.Help("edge_shed_total", "Machine-class requests shed while the origin path was degraded.")
	return &Instrumentation{
		GETRequests:   reg.Counter("edge_requests_total", "method", "get"),
		POSTRequests:  reg.Counter("edge_requests_total", "method", "post"),
		HEADRequests:  reg.Counter("edge_requests_total", "method", "head"),
		OtherRequests: reg.Counter("edge_requests_total", "method", "other"),
		NotModified:   reg.Counter("edge_not_modified_total"),
		BytesServed:   reg.Counter("edge_bytes_served_total"),
		OriginFetch:   reg.HDR("edge_origin_fetch_seconds", obs.LatencyHDRConfig()),
		OriginErrors:  reg.Counter("edge_origin_errors_total"),
		StaleServes:   reg.Counter("edge_stale_serves_total"),
		ShedMachine:   reg.Counter("edge_shed_total", "class", sched.ClassMachine.String()),
	}
}

// requests returns the counter for one request method.
func (in *Instrumentation) requests(method string) *obs.Counter {
	switch method {
	case http.MethodGet:
		return in.GETRequests
	case http.MethodPost:
		return in.POSTRequests
	case http.MethodHead:
		return in.HEADRequests
	default:
		return in.OtherRequests
	}
}

// Instrument wires the edge into reg: request metrics via
// NewInstrumentation plus the embedded cache's hit/miss/eviction
// counters and occupancy gauges. It returns the instrumentation it
// installed on e.
func (e *HTTPEdge) Instrument(reg *obs.Registry) *Instrumentation {
	e.Obs = NewInstrumentation(reg)
	if e.Cache != nil {
		RegisterCacheMetrics(reg, e.Cache)
	}
	return e.Obs
}

// RegisterCacheMetrics registers pull-style metrics for c in reg under
// the optional fixed label pairs: edge_cache_{hits,misses,evictions,
// expired,prefetched_hits}_total counters plus edge_cache_entries and
// edge_cache_bytes gauges. Values are read via Metrics at
// scrape time, so the counters stay exact without adding any cost to
// the cache's hot path. Panics if the same name and label set is
// already registered (register each cache once).
func RegisterCacheMetrics(reg *obs.Registry, c *Cache, labels ...string) {
	reg.Help("edge_cache_hits_total", "Cache lookups served from cache.")
	reg.Help("edge_cache_misses_total", "Cache lookups that missed (including expiries).")
	reg.CounterFunc("edge_cache_hits_total", func() int64 { return c.Metrics().Hits }, labels...)
	reg.CounterFunc("edge_cache_misses_total", func() int64 { return c.Metrics().Misses }, labels...)
	reg.CounterFunc("edge_cache_evictions_total", func() int64 { return c.Metrics().Evictions }, labels...)
	reg.CounterFunc("edge_cache_expired_total", func() int64 { return c.Metrics().Expired }, labels...)
	reg.CounterFunc("edge_cache_prefetched_hits_total", func() int64 { return c.Metrics().PrefetchedHits }, labels...)
	reg.GaugeFunc("edge_cache_entries", func() float64 { return float64(c.Len()) }, labels...)
	reg.GaugeFunc("edge_cache_bytes", func() float64 { return float64(c.Bytes()) }, labels...)
}
