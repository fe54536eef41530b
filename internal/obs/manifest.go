package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"
)

// This file implements run manifests: the `run-<id>.json` artifact every
// CLI run emits so a reviewer can reproduce any figure bit-for-bit. A
// manifest captures the full effective configuration (seed, scale,
// parallelism, fault injection), the toolchain and VCS revision
// that built the binary, the per-step ledger from the experiment
// scheduler, dead-letter counts from tolerant ingest, a final snapshot
// of the metrics registry, and the span tree of the run.

// ManifestStep is one scheduler-ledger entry: what the step did and how
// it ended.
type ManifestStep struct {
	Name    string `json:"name"`
	Status  string `json:"status"` // completed | skipped | failed
	WallNS  int64  `json:"wall_ns"`
	Records int64  `json:"records,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"`
}

// Manifest is the self-describing record of one run.
type Manifest struct {
	Schema  string    `json:"schema"` // "repro/run-manifest/v1"
	RunID   string    `json:"run_id"`
	Tool    string    `json:"tool"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	WallNS  int64     `json:"wall_ns"`
	Outcome string    `json:"outcome"` // completed | interrupted | failed

	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	// VCS fields come from debug/buildinfo when the binary was built
	// inside a version-controlled checkout (empty otherwise).
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`

	// Config is the tool's full effective configuration (every flag that
	// influences the output).
	Config map[string]any `json:"config"`

	// Steps is the per-step outcome ledger, in report order.
	Steps []ManifestStep `json:"steps,omitempty"`

	// DeadLetters counts records quarantined by tolerant ingest.
	DeadLetters int64 `json:"dead_letters"`

	// Metrics is the final registry snapshot: counters and gauges by
	// name{labels}, HDR summaries as _count and _sum entries.
	Metrics map[string]float64 `json:"metrics,omitempty"`

	// Spans is the run's span tree (ids and parent ids preserved);
	// DroppedSpans counts spans evicted by the tracer's retention limit.
	Spans        []SpanLogEntry `json:"spans,omitempty"`
	DroppedSpans int64          `json:"dropped_spans,omitempty"`
}

// runSeq disambiguates run ids minted within the same second by the same
// process (tests, tight loops).
var runSeq atomic.Int64

// NewRunID mints a run identifier: UTC timestamp, pid, and a process-
// local sequence number. Filesystem- and URL-safe.
func NewRunID() string {
	return time.Now().UTC().Format("20060102-150405") +
		"-" + strconv.Itoa(os.Getpid()) +
		"-" + strconv.FormatInt(runSeq.Add(1), 10)
}

// NewManifest returns a manifest for the named tool with the runtime,
// toolchain, and VCS fields filled in and Start set to now.
func NewManifest(tool, runID string) *Manifest {
	m := &Manifest{
		Schema:     "repro/run-manifest/v1",
		RunID:      runID,
		Tool:       tool,
		Start:      time.Now().UTC(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Config:     map[string]any{},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.VCSRevision = s.Value
			case "vcs.time":
				m.VCSTime = s.Value
			case "vcs.modified":
				m.VCSModified = s.Value == "true"
			}
		}
	}
	return m
}

// Finish stamps the end time, wall duration, and outcome.
func (m *Manifest) Finish(outcome string) {
	m.End = time.Now().UTC()
	m.WallNS = int64(m.End.Sub(m.Start))
	m.Outcome = outcome
}

// AddMetrics snapshots reg into the manifest (no-op on a nil registry).
func (m *Manifest) AddMetrics(reg *Registry) {
	if reg != nil {
		m.Metrics = SnapshotMetrics(reg)
	}
}

// AddTrace embeds tr's span tree and dropped-span count (no-op on nil).
func (m *Manifest) AddTrace(tr *Trace) {
	if tr == nil {
		return
	}
	m.Spans = tr.spanLogEntries()
	m.DroppedSpans = tr.Dropped()
}

// Path returns the manifest's filename under dir: run-<id>.json.
func (m *Manifest) Path(dir string) string {
	return filepath.Join(dir, "run-"+m.RunID+".json")
}

// WriteFile writes the manifest as indented JSON to Path(dir) and
// returns the path written. The directory is created if missing, so
// tools can default their manifests into a git-ignored out/ directory
// without a setup step.
func (m *Manifest) WriteFile(dir string) (string, error) {
	if dir != "" && dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", fmt.Errorf("obs: creating manifest dir: %w", err)
		}
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return "", fmt.Errorf("obs: encoding run manifest: %w", err)
	}
	data = append(data, '\n')
	path := m.Path(dir)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("obs: writing run manifest: %w", err)
	}
	return path, nil
}

// SnapshotMetrics flattens a registry into name{labels} → value:
// counters and gauges directly, HDR summaries as _count and _sum entries —
// the manifest-friendly projection of a /metrics scrape.
func SnapshotMetrics(r *Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, f := range r.snapshotFamilies() {
		for _, s := range f.series {
			labels := ""
			if lk := labelKey(s.labels); lk != "" {
				labels = "{" + lk + "}"
			}
			switch {
			case s.c != nil:
				out[f.name+labels] = float64(s.c.Value())
			case s.cfn != nil:
				out[f.name+labels] = float64(s.cfn())
			case s.g != nil:
				out[f.name+labels] = s.g.Value()
			case s.gfn != nil:
				out[f.name+labels] = s.gfn()
			case s.hdr != nil:
				out[f.name+"_count"+labels] = float64(s.hdr.Count())
				out[f.name+"_sum"+labels] = float64(s.hdr.Sum()) * s.hdr.Config().Unit
			}
		}
	}
	return out
}
