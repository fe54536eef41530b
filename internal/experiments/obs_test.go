package experiments

import (
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestInstrumentedRunner checks that an instrumented runner reports
// dataset generation through both the registry and the tracer.
func TestInstrumentedRunner(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.0004
	cfg.PatternTarget = 5_000
	cfg.PatternWindow = 30 * time.Minute
	r := NewRunner(cfg)

	reg := obs.NewRegistry()
	tr := obs.NewTrace()
	r.Instrument(reg, tr)

	recs, err := r.ShortTermRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no records generated")
	}
	if got := reg.Counter("synth_records_generated_total").Value(); got != int64(len(recs)) {
		t.Errorf("synth_records_generated_total = %d, want %d", got, len(recs))
	}

	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Name != "synth short-term dataset" {
		t.Fatalf("spans = %+v, want one synth span", spans)
	}
	if spans[0].Records != int64(len(recs)) || spans[0].Bytes <= 0 {
		t.Errorf("span tallies = %+v", spans[0])
	}

	var b strings.Builder
	tr.WriteTable(&b)
	if !strings.Contains(b.String(), "synth short-term dataset") {
		t.Errorf("trace table missing stage:\n%s", b.String())
	}
}

// TestExhibitSeries pins the series the two robustness exhibits report
// on an instrumented runner: each stack's edge_* push counters, the
// defended stacks' defend_* series, and the resilient stack's
// resilience_* series. No stack registers pull metrics over its cache
// (they would keep every replayed cache alive until the registry goes),
// and the adversarial stacks, which run without the resilience path,
// report no resilience_* series.
func TestExhibitSeries(t *testing.T) {
	r := NewRunner(DefaultConfig())
	reg := obs.NewRegistry()
	r.Instrument(reg, nil)
	if _, err := r.Resilience(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Adversarial(nil); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range obs.SnapshotMetrics(reg) {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{
		"defend_abusers{stack=defended-2x}",
		"defend_abusers{stack=defended}",
		"defend_anomalies_total{detector=fanout,stack=defended-2x}",
		"defend_anomalies_total{detector=fanout,stack=defended}",
		"defend_anomalies_total{detector=period,stack=defended-2x}",
		"defend_anomalies_total{detector=period,stack=defended}",
		"defend_anomalies_total{detector=request,stack=defended-2x}",
		"defend_anomalies_total{detector=request,stack=defended}",
		"defend_collapsed_bases_total{stack=defended-2x}",
		"defend_collapsed_bases_total{stack=defended}",
		"defend_collapsed_total{stack=defended-2x}",
		"defend_collapsed_total{stack=defended}",
		"defend_decision_seconds_count{stack=defended-2x}",
		"defend_decision_seconds_count{stack=defended}",
		"defend_decision_seconds_sum{stack=defended-2x}",
		"defend_decision_seconds_sum{stack=defended}",
		"defend_negative_entries{stack=defended-2x}",
		"defend_negative_entries{stack=defended}",
		"defend_negative_hits_total{stack=defended-2x}",
		"defend_negative_hits_total{stack=defended}",
		"defend_negative_stores_total{stack=defended-2x}",
		"defend_negative_stores_total{stack=defended}",
		"defend_sheds_total{reason=abuser,stack=defended-2x}",
		"defend_sheds_total{reason=abuser,stack=defended}",
		"defend_sheds_total{reason=class-rate,stack=defended-2x}",
		"defend_sheds_total{reason=class-rate,stack=defended}",
		"defend_sheds_total{reason=client-rate,stack=defended-2x}",
		"defend_sheds_total{reason=client-rate,stack=defended}",
		"edge_bytes_served_total{stack=baseline}",
		"edge_bytes_served_total{stack=defended-2x}",
		"edge_bytes_served_total{stack=defended}",
		"edge_bytes_served_total{stack=resilient}",
		"edge_bytes_served_total{stack=undefended-2x}",
		"edge_bytes_served_total{stack=undefended}",
		"edge_not_modified_total{stack=baseline}",
		"edge_not_modified_total{stack=defended-2x}",
		"edge_not_modified_total{stack=defended}",
		"edge_not_modified_total{stack=resilient}",
		"edge_not_modified_total{stack=undefended-2x}",
		"edge_not_modified_total{stack=undefended}",
		"edge_origin_errors_total{stack=baseline}",
		"edge_origin_errors_total{stack=defended-2x}",
		"edge_origin_errors_total{stack=defended}",
		"edge_origin_errors_total{stack=resilient}",
		"edge_origin_errors_total{stack=undefended-2x}",
		"edge_origin_errors_total{stack=undefended}",
		"edge_origin_fetch_seconds_count{stack=baseline}",
		"edge_origin_fetch_seconds_count{stack=defended-2x}",
		"edge_origin_fetch_seconds_count{stack=defended}",
		"edge_origin_fetch_seconds_count{stack=resilient}",
		"edge_origin_fetch_seconds_count{stack=undefended-2x}",
		"edge_origin_fetch_seconds_count{stack=undefended}",
		"edge_origin_fetch_seconds_sum{stack=baseline}",
		"edge_origin_fetch_seconds_sum{stack=defended-2x}",
		"edge_origin_fetch_seconds_sum{stack=defended}",
		"edge_origin_fetch_seconds_sum{stack=resilient}",
		"edge_origin_fetch_seconds_sum{stack=undefended-2x}",
		"edge_origin_fetch_seconds_sum{stack=undefended}",
		"edge_requests_total{method=get,stack=baseline}",
		"edge_requests_total{method=get,stack=defended-2x}",
		"edge_requests_total{method=get,stack=defended}",
		"edge_requests_total{method=get,stack=resilient}",
		"edge_requests_total{method=get,stack=undefended-2x}",
		"edge_requests_total{method=get,stack=undefended}",
		"edge_requests_total{method=head,stack=baseline}",
		"edge_requests_total{method=head,stack=defended-2x}",
		"edge_requests_total{method=head,stack=defended}",
		"edge_requests_total{method=head,stack=resilient}",
		"edge_requests_total{method=head,stack=undefended-2x}",
		"edge_requests_total{method=head,stack=undefended}",
		"edge_requests_total{method=other,stack=baseline}",
		"edge_requests_total{method=other,stack=defended-2x}",
		"edge_requests_total{method=other,stack=defended}",
		"edge_requests_total{method=other,stack=resilient}",
		"edge_requests_total{method=other,stack=undefended-2x}",
		"edge_requests_total{method=other,stack=undefended}",
		"edge_requests_total{method=post,stack=baseline}",
		"edge_requests_total{method=post,stack=defended-2x}",
		"edge_requests_total{method=post,stack=defended}",
		"edge_requests_total{method=post,stack=resilient}",
		"edge_requests_total{method=post,stack=undefended-2x}",
		"edge_requests_total{method=post,stack=undefended}",
		"edge_shed_total{class=machine,stack=baseline}",
		"edge_shed_total{class=machine,stack=defended-2x}",
		"edge_shed_total{class=machine,stack=defended}",
		"edge_shed_total{class=machine,stack=resilient}",
		"edge_shed_total{class=machine,stack=undefended-2x}",
		"edge_shed_total{class=machine,stack=undefended}",
		"edge_stale_serves_total{stack=baseline}",
		"edge_stale_serves_total{stack=defended-2x}",
		"edge_stale_serves_total{stack=defended}",
		"edge_stale_serves_total{stack=resilient}",
		"edge_stale_serves_total{stack=undefended-2x}",
		"edge_stale_serves_total{stack=undefended}",
		"resilience_attempt_seconds_count{stack=resilient}",
		"resilience_attempt_seconds_sum{stack=resilient}",
		"resilience_attempts_total{result=error,stack=resilient}",
		"resilience_attempts_total{result=ok,stack=resilient}",
		"resilience_attempts_total{result=timeout,stack=resilient}",
		"resilience_breaker_opens_total{stack=resilient}",
		"resilience_breaker_rejects_total{stack=resilient}",
		"resilience_breaker_state{stack=resilient}",
		"resilience_retries_total{stack=resilient}",
	}
	if !slices.Equal(got, want) {
		var added, removed []string
		for _, k := range got {
			if !slices.Contains(want, k) {
				added = append(added, k)
			}
		}
		for _, k := range want {
			if !slices.Contains(got, k) {
				removed = append(removed, k)
			}
		}
		t.Errorf("exhibit series changed: %d now, %d pinned\nadded: %q\nremoved: %q",
			len(got), len(want), added, removed)
	}
}
