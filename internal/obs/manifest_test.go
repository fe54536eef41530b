package obs

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestNewRunIDUnique(t *testing.T) {
	a, b := NewRunID(), NewRunID()
	if a == b {
		t.Errorf("consecutive run ids collide: %s", a)
	}
	if strings.ContainsAny(a, "/ :") {
		t.Errorf("run id %q is not filesystem-safe", a)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("synth_records_generated_total").Add(1234)
	reg.Counter("edge_requests_total", "method", "get").Add(7)
	h := reg.HDR("ingest_decode_seconds", LatencyHDRConfig())
	h.RecordDuration(2 * time.Millisecond)
	h.RecordDuration(5 * time.Millisecond)

	tr := NewTrace()
	root := tr.Start("RunAll")
	root.Child("table 2").End()
	root.End()

	m := NewManifest("jsonrepro", "test-run-1")
	m.Config["seed"] = uint64(42)
	m.Config["scale"] = 0.002
	m.Steps = []ManifestStep{
		{Name: "Table 2", Status: "completed", WallNS: int64(time.Second), Records: 100, Bytes: 4096},
		{Name: "Figure 3", Status: "skipped"},
	}
	m.DeadLetters = 3
	m.AddMetrics(reg)
	m.AddTrace(tr)
	m.Finish("completed")

	if m.Schema != "repro/run-manifest/v1" {
		t.Errorf("schema = %q", m.Schema)
	}
	if m.GoVersion != runtime.Version() || m.GOOS != runtime.GOOS {
		t.Errorf("toolchain fields = %s/%s", m.GoVersion, m.GOOS)
	}
	if m.WallNS < 0 || m.End.Before(m.Start) {
		t.Errorf("timing fields inverted: start=%v end=%v", m.Start, m.End)
	}
	if got := m.Metrics["synth_records_generated_total"]; got != 1234 {
		t.Errorf("counter snapshot = %v", got)
	}
	if got := m.Metrics["edge_requests_total{method=get}"]; got != 7 {
		t.Errorf("labeled counter snapshot = %v", got)
	}
	if got := m.Metrics["ingest_decode_seconds_count"]; got != 2 {
		t.Errorf("summary count snapshot = %v", got)
	}
	if got := m.Metrics["ingest_decode_seconds_sum"]; got < 0.0069 || got > 0.0071 {
		t.Errorf("summary sum snapshot = %v", got)
	}
	if len(m.Spans) != 2 {
		t.Errorf("spans embedded = %d, want 2", len(m.Spans))
	}

	dir := t.TempDir()
	path, err := m.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(path, "run-test-run-1.json") {
		t.Errorf("manifest path = %q", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if back.RunID != "test-run-1" || back.Tool != "jsonrepro" || back.Outcome != "completed" {
		t.Errorf("round trip = %+v", back)
	}
	if len(back.Steps) != 2 || back.Steps[0].Records != 100 {
		t.Errorf("steps lost in round trip: %+v", back.Steps)
	}
	if back.DeadLetters != 3 {
		t.Errorf("dead letters = %d", back.DeadLetters)
	}
	if back.Spans[1].Parent != back.Spans[0].ID {
		t.Errorf("span hierarchy lost: %+v", back.Spans)
	}
}

func TestManifestNilInstrumentation(t *testing.T) {
	m := NewManifest("jsonchar", "r")
	m.AddMetrics(nil)
	m.AddTrace(nil)
	m.Finish("failed")
	if m.Metrics != nil || m.Spans != nil {
		t.Errorf("nil instrumentation populated fields: %+v", m)
	}
	if m.Outcome != "failed" {
		t.Errorf("outcome = %q", m.Outcome)
	}
}
