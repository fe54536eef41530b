package replay

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
)

// ReportSchema identifies the replay report document format.
const ReportSchema = "repro/replay-report/v1"

// Report is the machine-readable summary of one replay run — the
// load-side sibling of the run-<id>.json manifest. It carries the full
// configuration, throughput and error budget, a percentile table with
// both the coordinated-omission-safe (intended) and naive (service)
// values side by side, per-status and per-MIME breakdowns, the SLO
// verdict, and the compact HDR snapshots themselves so reports from
// sharded workers can be merged after the fact.
type Report struct {
	Schema    string `json:"schema"`
	RunID     string `json:"run_id"`
	Generated string `json:"generated"`

	Config     ReportConfig    `json:"config"`
	Throughput Throughput      `json:"throughput"`
	Errors     ErrorBudget     `json:"errors"`
	Latency    LatencyTable    `json:"latency"`
	SchedLag   SchedLag        `json:"sched_lag_ms"`
	PerStatus  []ClassStats    `json:"per_status,omitempty"`
	PerMIME    []ClassStats    `json:"per_mime,omitempty"`
	PerNode    []ClassStats    `json:"per_node,omitempty"`
	SLO        *SLOReport      `json:"slo,omitempty"`
	Intended   obs.HDRSnapshot `json:"intended_hdr"`
	Service    obs.HDRSnapshot `json:"service_hdr"`
}

// ReportConfig echoes the run parameters.
type ReportConfig struct {
	Target      string  `json:"target"`
	Input       string  `json:"input,omitempty"`
	Records     int     `json:"records"`
	Rate        float64 `json:"rate,omitempty"`
	Speed       float64 `json:"speed,omitempty"`
	Concurrency int     `json:"concurrency"`
	DurationSec float64 `json:"duration_seconds,omitempty"`
	WarmupSec   float64 `json:"warmup_seconds,omitempty"`
}

// Throughput is the demand-vs-delivery view.
type Throughput struct {
	Offered     int64   `json:"offered"`
	Sent        int64   `json:"sent"`
	Measured    int64   `json:"measured"`
	WallSeconds float64 `json:"wall_seconds"`
	OfferedRPS  float64 `json:"offered_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
}

// ErrorBudget is the transport-error accounting over the measurement
// window.
type ErrorBudget struct {
	Count   int64   `json:"count"`
	Rate    float64 `json:"rate"`
	Dropped int64   `json:"dropped,omitempty"`
}

// LatencyTable is the percentile table plus summary stats, in
// milliseconds. Intended is measured from scheduled start
// (coordinated-omission-safe); Service from actual send.
type LatencyTable struct {
	Rows   []LatencyRow `json:"percentiles"`
	MeanMs float64      `json:"mean_ms"`
	MinMs  float64      `json:"min_ms"`
	MaxMs  float64      `json:"max_ms"`
}

// LatencyRow is one percentile with both measurement disciplines.
type LatencyRow struct {
	Quantile   float64 `json:"quantile"`
	IntendedMs float64 `json:"intended_ms"`
	ServiceMs  float64 `json:"service_ms"`
}

// SchedLag is how late the generator itself ran, in milliseconds:
// request start minus intended start (Result.Lag). Read it against the
// intended p50 — far below it, the latency table is the server's; near
// it, the harness (pacing, or too little -concurrency) is in the numbers.
type SchedLag struct {
	P50Ms float64 `json:"p50"`
	P99Ms float64 `json:"p99"`
	MaxMs float64 `json:"max"`
}

// ClassStats is one per-status or per-MIME breakdown row (intended
// latency, milliseconds).
type ClassStats struct {
	Key    string  `json:"key"`
	Count  int64   `json:"count"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// SLOReport is the gate verdict embedded in the report.
type SLOReport struct {
	Expr       string   `json:"expr"`
	Pass       bool     `json:"pass"`
	Violations []string `json:"violations,omitempty"`
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// BuildReport assembles a Report from a finished run. slo may be nil.
func BuildReport(runID, input string, records int, cfg Config, res *Result, slo *SLO) *Report {
	rep := &Report{
		Schema:    ReportSchema,
		RunID:     runID,
		Generated: time.Now().UTC().Format(time.RFC3339),
		Config: ReportConfig{
			Target:      cfg.Target,
			Input:       input,
			Records:     records,
			Rate:        cfg.Rate,
			Concurrency: cfg.Concurrency,
			DurationSec: cfg.Duration.Seconds(),
			WarmupSec:   cfg.Warmup.Seconds(),
		},
		Throughput: Throughput{
			Offered:     res.Offered,
			Sent:        res.Sent,
			Measured:    res.Measured,
			WallSeconds: res.Wall.Seconds(),
			OfferedRPS:  res.OfferedRPS(),
			AchievedRPS: res.AchievedRPS(),
		},
		Errors: ErrorBudget{
			Count:   res.MeasuredErrors,
			Rate:    res.ErrorRate(),
			Dropped: res.Dropped,
		},
		Latency: LatencyTable{
			MeanMs: res.Latency.Mean() / 1e6,
			MinMs:  ms(res.Latency.Min()),
			MaxMs:  ms(res.Latency.Max()),
		},
		SchedLag: SchedLag{
			P50Ms: ms(res.Lag.Quantile(0.50)),
			P99Ms: ms(res.Lag.Quantile(0.99)),
			MaxMs: ms(res.Lag.Max()),
		},
		Intended: res.Latency.Snapshot(),
		Service:  res.Service.Snapshot(),
	}
	if cfg.Rate <= 0 {
		rep.Config.Speed = cfg.Speed
	}
	for _, q := range obs.HDRQuantiles {
		rep.Latency.Rows = append(rep.Latency.Rows, LatencyRow{
			Quantile:   q,
			IntendedMs: ms(res.Latency.Quantile(q)),
			ServiceMs:  ms(res.Service.Quantile(q)),
		})
	}
	for status, n := range res.Status {
		rep.PerStatus = append(rep.PerStatus, classStats(strconv.Itoa(status), n, res.StatusLatency[status]))
	}
	sort.Slice(rep.PerStatus, func(i, j int) bool { return rep.PerStatus[i].Key < rep.PerStatus[j].Key })
	for mime, n := range res.MIME {
		rep.PerMIME = append(rep.PerMIME, classStats(mime, n, res.MIMELatency[mime]))
	}
	sort.Slice(rep.PerMIME, func(i, j int) bool { return rep.PerMIME[i].Key < rep.PerMIME[j].Key })
	for node, n := range res.Node {
		rep.PerNode = append(rep.PerNode, classStats(node, n, res.NodeLatency[node]))
	}
	sort.Slice(rep.PerNode, func(i, j int) bool { return rep.PerNode[i].Key < rep.PerNode[j].Key })
	if slo != nil {
		violations := slo.Eval(res)
		rep.SLO = &SLOReport{Expr: slo.Expr, Pass: len(violations) == 0, Violations: violations}
	}
	return rep
}

func classStats(key string, n int64, h *obs.HDRHistogram) ClassStats {
	cs := ClassStats{Key: key, Count: n}
	if h != nil {
		cs.P50Ms = ms(h.Quantile(0.50))
		cs.P99Ms = ms(h.Quantile(0.99))
		cs.P999Ms = ms(h.Quantile(0.999))
		cs.MaxMs = ms(h.Max())
	}
	return cs
}

// Write marshals the report to path ("-" for stdout).
func (r *Report) Write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("replay: marshal report: %w", err)
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
