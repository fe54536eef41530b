package replay

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func sloResult(latencies []time.Duration, errors int64, wall time.Duration) *Result {
	res := newResult()
	for _, d := range latencies {
		res.Latency.RecordDuration(d)
		res.Service.RecordDuration(d)
		res.Measured++
		res.Sent++
	}
	res.MeasuredErrors = errors
	res.Errors = errors
	res.Measured += errors
	res.Sent += errors
	res.Wall = wall
	return res
}

func TestParseSLO(t *testing.T) {
	slo, err := ParseSLO("p99<50ms, err<1%,rps>=100,mean<5ms,max<2s,p999<200ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(slo.Clauses) != 6 {
		t.Fatalf("clauses = %d", len(slo.Clauses))
	}
	checks := []struct {
		kind      sloKind
		quantile  float64
		op        string
		threshold float64
	}{
		{sloLatency, 0.99, "<", 0.05},
		{sloErr, 0, "<", 0.01},
		{sloRPS, 0, ">=", 100},
		{sloLatency, quantileMean, "<", 0.005},
		{sloLatency, quantileMax, "<", 2},
		{sloLatency, 0.999, "<", 0.2},
	}
	for i, want := range checks {
		c := slo.Clauses[i]
		if c.kind != want.kind || c.op != want.op || c.threshold != want.threshold {
			t.Errorf("clause %d = %+v, want %+v", i, c, want)
		}
		if want.kind == sloLatency && math.Abs(c.quantile-want.quantile) > 1e-9 {
			t.Errorf("clause %d quantile = %v, want %v", i, c.quantile, want.quantile)
		}
	}

	if s, err := ParseSLO(""); err != nil || s != nil {
		t.Errorf("empty expr: %v %v", s, err)
	}
	for _, bad := range []string{"p99", "p99<", "<50ms", "zzz<1", "p99<banana", "err<oops", "p0<1ms", ","} {
		if _, err := ParseSLO(bad); err == nil {
			t.Errorf("ParseSLO(%q) accepted", bad)
		}
	}
}

func TestSLOEval(t *testing.T) {
	// 100 fast samples and one 300ms outlier: p99 lands near the top.
	lats := make([]time.Duration, 0, 101)
	for i := 0; i < 100; i++ {
		lats = append(lats, 2*time.Millisecond)
	}
	lats = append(lats, 300*time.Millisecond)
	res := sloResult(lats, 0, time.Second)

	slo, err := ParseSLO("p50<10ms,err<=0%")
	if err != nil {
		t.Fatal(err)
	}
	if v := slo.Eval(res); len(v) != 0 {
		t.Errorf("expected pass, got %v", v)
	}

	slo, err = ParseSLO("max<50ms,rps>1000")
	if err != nil {
		t.Fatal(err)
	}
	v := slo.Eval(res)
	if len(v) != 2 {
		t.Fatalf("expected 2 violations, got %v", v)
	}
	if !strings.Contains(v[0], "max<50ms violated") {
		t.Errorf("violation message: %q", v[0])
	}

	// Error budget: 10 errors over 111 measured ≈ 9%.
	res = sloResult(lats, 10, time.Second)
	slo, _ = ParseSLO("err<1%")
	if v := slo.Eval(res); len(v) != 1 {
		t.Errorf("error budget not enforced: %v", v)
	}
	slo, _ = ParseSLO("err<0.10")
	if v := slo.Eval(res); len(v) != 0 {
		t.Errorf("fraction threshold misparsed: %v", v)
	}

	// A nil SLO never gates.
	if v := (*SLO)(nil).Eval(res); v != nil {
		t.Errorf("nil SLO produced %v", v)
	}
}

func TestSLOAvailCountsServerErrors(t *testing.T) {
	// 90 good responses, 10 well-formed 502s, no transport errors: the
	// transport budget passes but availability must not — this is the
	// fleet-front failure mode (failover exhausted -> 502).
	lats := make([]time.Duration, 100)
	for i := range lats {
		lats[i] = 2 * time.Millisecond
	}
	res := sloResult(lats, 0, time.Second)
	res.Status[200] = 90
	res.Status[502] = 10

	slo, err := ParseSLO("err<1%,avail<1%")
	if err != nil {
		t.Fatal(err)
	}
	v := slo.Eval(res)
	if len(v) != 1 || !strings.Contains(v[0], "avail<1% violated") {
		t.Fatalf("want exactly the avail violation, got %v", v)
	}
	if got := res.AvailabilityErrorRate(); math.Abs(got-0.10) > 1e-9 {
		t.Errorf("AvailabilityErrorRate = %v, want 0.10", got)
	}

	// Transport errors count toward availability too.
	res.MeasuredErrors = 5
	if got := res.AvailabilityErrorRate(); math.Abs(got-0.15) > 1e-9 {
		t.Errorf("with transport errors: %v, want 0.15", got)
	}
	if _, err := ParseSLO("avail<oops"); err == nil {
		t.Error("bad avail threshold accepted")
	}
}

func TestSLOGatesOnIntendedNotService(t *testing.T) {
	// The intended distribution has a fat tail the service one lacks;
	// the gate must read the intended one.
	res := newResult()
	for i := 0; i < 100; i++ {
		res.Latency.RecordDuration(400 * time.Millisecond)
		res.Service.RecordDuration(1 * time.Millisecond)
		res.Measured++
		res.Sent++
	}
	res.Wall = time.Second
	slo, _ := ParseSLO("p99<50ms")
	if v := slo.Eval(res); len(v) != 1 {
		t.Fatalf("SLO evaluated the naive distribution: %v", v)
	}
}

func TestBuildReport(t *testing.T) {
	res := sloResult([]time.Duration{time.Millisecond, 2 * time.Millisecond, 100 * time.Millisecond}, 1, time.Second)
	res.Offered = 4
	res.Status = map[int]int64{200: 2, 503: 1}
	res.StatusLatency = map[int]*obs.HDRHistogram{
		200: obs.NewHDRHistogram(obs.LatencyHDRConfig()),
		503: obs.NewHDRHistogram(obs.LatencyHDRConfig()),
	}
	res.StatusLatency[200].RecordDuration(time.Millisecond)
	res.MIME = map[string]int64{"application/json": 3}
	res.Lag.RecordDuration(250 * time.Microsecond)

	slo, _ := ParseSLO("p99<50ms")
	rep := BuildReport("run-1", "in.tsv", 42, Config{Target: "http://x", Rate: 100, Concurrency: 8}, res, slo)
	if rep.Schema != ReportSchema || rep.RunID != "run-1" {
		t.Fatalf("header: %+v", rep)
	}
	if rep.Config.Records != 42 || rep.Config.Rate != 100 {
		t.Errorf("config: %+v", rep.Config)
	}
	if len(rep.Latency.Rows) != len(obs.HDRQuantiles) {
		t.Errorf("percentile rows = %d", len(rep.Latency.Rows))
	}
	if len(rep.PerStatus) != 2 || rep.PerStatus[0].Key != "200" {
		t.Errorf("per-status: %+v", rep.PerStatus)
	}
	if rep.SLO == nil || rep.SLO.Pass {
		t.Errorf("slo verdict: %+v (100ms sample must violate p99<50ms)", rep.SLO)
	}
	if lag := rep.SchedLag; lag.P50Ms < 0.24 || lag.P50Ms > 0.26 || lag.MaxMs != 0.25 {
		t.Errorf("sched_lag_ms: %+v, want the one 0.25 ms sample", lag)
	}
	if rep.Intended.Count != res.Latency.Count() {
		t.Errorf("intended snapshot count %d != %d", rep.Intended.Count, res.Latency.Count())
	}

	// Round trip through disk.
	path := t.TempDir() + "/replay.json"
	if err := rep.Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != ReportSchema || back.Throughput.Sent != rep.Throughput.Sent || back.SLO.Pass != rep.SLO.Pass || back.SchedLag != rep.SchedLag {
		t.Errorf("round trip: %+v", back)
	}
	// The embedded HDR snapshot rebuilds into a queryable histogram.
	h, err := obs.FromHDRSnapshot(back.Intended)
	if err != nil {
		t.Fatal(err)
	}
	if h.Count() != res.Latency.Count() {
		t.Errorf("snapshot count = %d", h.Count())
	}
}
