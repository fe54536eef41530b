package experiments

import (
	"context"
	"errors"
	"io"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/synth"
)

// smallConfig is the tiny-but-pattern-bearing configuration the
// scheduler tests run the full report at, twice.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = 0.001
	cfg.PatternTarget = 60_000
	cfg.PatternWindow = time.Hour
	cfg.Permutations = 30
	cfg.SampleBin = 2 * time.Second
	return cfg
}

// zeroWalls clears the per-step wall times, the only part of a Report
// that legitimately differs between runs.
func zeroWalls(rep *Report) {
	for i := range rep.Steps {
		rep.Steps[i].Wall = 0
	}
}

// TestRunAllParallelGolden is the scheduler's contract: one path at two
// widths — four workers emit byte-identical report text and an identical
// Report struct to one worker.
func TestRunAllParallelGolden(t *testing.T) {
	var seqText strings.Builder
	seqRep, err := NewRunner(smallConfig()).RunAll(&seqText)
	if err != nil {
		t.Fatal(err)
	}

	parCfg := smallConfig()
	parCfg.Jobs = 4
	var parText strings.Builder
	parRep, err := NewRunner(parCfg).RunAll(&parText)
	if err != nil {
		t.Fatal(err)
	}

	if seqText.String() != parText.String() {
		t.Errorf("report text differs between widths:\n--- Jobs 1 ---\n%s\n--- Jobs 4 ---\n%s",
			seqText.String(), parText.String())
	}
	zeroWalls(seqRep)
	zeroWalls(parRep)
	if !reflect.DeepEqual(seqRep, parRep) {
		t.Error("Report struct differs between Jobs 1 and Jobs 4")
	}
	if got := parRep.Completed(); got != len(parRep.Steps) {
		t.Errorf("parallel run completed %d of %d steps", got, len(parRep.Steps))
	}
}

// TestRunAllParallelCancelledBeforeStart returns the all-skipped ledger
// and ctx's error without running anything.
func TestRunAllParallelCancelledBeforeStart(t *testing.T) {
	cfg := smallConfig()
	cfg.Jobs = 4
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sb strings.Builder
	rep, err := NewRunner(cfg).RunAllContext(ctx, &sb)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if rep == nil {
		t.Fatal("cancelled run must still return the report ledger")
	}
	for _, st := range rep.Steps {
		if st.State != StepSkipped {
			t.Errorf("step %q = %v, want skipped", st.Name, st.State)
		}
	}
	if sb.Len() != 0 {
		t.Errorf("cancelled-before-start run wrote output:\n%s", sb.String())
	}
}

// TestWriteStepSummaryFailedWall checks that failed steps report their
// wall time (they ran), while skipped steps (which never started) do
// not.
func TestWriteStepSummaryFailedWall(t *testing.T) {
	rep := &Report{Steps: []StepStatus{
		{Name: "Figure 1", State: StepCompleted, Wall: 120 * time.Millisecond},
		{Name: "Table 2", State: StepFailed, Wall: 45 * time.Millisecond},
		{Name: "Figure 3", State: StepSkipped},
	}}
	var sb strings.Builder
	rep.WriteStepSummary(&sb)
	out := sb.String()
	if !strings.Contains(out, "failed (45ms)") {
		t.Errorf("failed step missing wall time:\n%s", out)
	}
	if !strings.Contains(out, "completed (120ms)") {
		t.Errorf("completed step missing wall time:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "skipped") && strings.Contains(line, "ms") {
			t.Errorf("skipped step reports a wall time: %q", line)
		}
	}
}

// TestRunAllParallelJobsCap checks sanitize keeps the one-worker
// default.
func TestRunAllParallelJobsCap(t *testing.T) {
	cfg := Config{}
	cfg.sanitize()
	if cfg.Jobs != 1 {
		t.Errorf("default Jobs = %d, want 1", cfg.Jobs)
	}
}

// section cuts the "== title ==" section out of a report.
func section(t *testing.T, report, title string) string {
	t.Helper()
	head := "\n== " + title + " ==\n"
	i := strings.Index(report, head)
	if i < 0 {
		t.Fatalf("report has no section %q", title)
	}
	rest := report[i+len(head):]
	if j := strings.Index(rest, "\n== "); j >= 0 {
		rest = rest[:j]
	}
	return head + rest
}

// TestRunSubset checks that a key subset goes through the same path as
// a full run: exactly the named sections, in paper order whatever order
// the keys come in, byte-equal to the same sections of a full run on the
// same seed, with a matching ledger — at one worker and at four. An
// unknown key fails before any work and names the keys there are.
func TestRunSubset(t *testing.T) {
	var full strings.Builder
	fullRep, err := NewRunner(smallConfig()).RunAll(&full)
	if err != nil {
		t.Fatal(err)
	}
	const fig5, table3 = "Figure 5 and §5.1 periodicity", "Table 3 and §5.2 prediction"
	want := section(t, full.String(), fig5) + section(t, full.String(), table3)
	ledger := map[string]StepStatus{}
	for _, st := range fullRep.Steps {
		ledger[st.Name] = st
	}

	for _, jobs := range []int{1, 4} {
		cfg := smallConfig()
		cfg.Jobs = jobs
		var sb strings.Builder
		rep, err := NewRunner(cfg).Run(context.Background(), &sb, "table3", "fig5")
		if err != nil {
			t.Fatal(err)
		}
		if sb.String() != want {
			t.Errorf("Jobs %d: subset text differs from the full run's sections:\n--- subset ---\n%s\n--- full ---\n%s",
				jobs, sb.String(), want)
		}
		if len(rep.Steps) != 2 || rep.Steps[0].Name != fig5 || rep.Steps[1].Name != table3 {
			t.Fatalf("Jobs %d: ledger = %+v, want Figure 5 then Table 3", jobs, rep.Steps)
		}
		for _, st := range rep.Steps {
			f := ledger[st.Name]
			if st.State != StepCompleted || st.Records != f.Records || st.Bytes != f.Bytes || st.Records == 0 {
				t.Errorf("Jobs %d: step %q = %v %d records %d bytes, full run read %d/%d",
					jobs, st.Name, st.State, st.Records, st.Bytes, f.Records, f.Bytes)
			}
		}
		if rep.Periods == nil || rep.Table3.ActualVocab == 0 {
			t.Errorf("Jobs %d: subset results missing from the Report", jobs)
		}
	}

	r := NewRunner(smallConfig())
	tr := obs.NewTrace()
	r.Instrument(nil, tr)
	var sb strings.Builder
	rep, err := r.Run(context.Background(), &sb, "fig5", "fig7")
	if err == nil || rep != nil {
		t.Fatalf("unknown key: report %v, err %v", rep, err)
	}
	for _, k := range Keys() {
		if !strings.Contains(err.Error(), k) {
			t.Errorf("unknown-key error %q does not list key %q", err, k)
		}
	}
	if sb.Len() != 0 || len(tr.Spans()) != 0 {
		t.Errorf("unknown key did work first: %d bytes written, %d spans", sb.Len(), len(tr.Spans()))
	}
	if len(Keys()) != 13 {
		t.Errorf("Keys() = %v, want the 13 exhibits", Keys())
	}
}

// pick returns the step-table rows named by keys, in paper order.
func pick(keys ...string) []step {
	var out []step
	for _, st := range stepTable {
		if slices.Contains(keys, st.key) {
			out = append(out, st)
		}
	}
	return out
}

// stepOrder is plan's dispatch order of selected's steps, as indices
// into selected.
func stepOrder(r *Runner, selected []step) []int {
	var order []int
	for _, tk := range r.plan(selected) {
		if tk.d == nil {
			order = append(order, tk.step)
		}
	}
	return order
}

// TestDispatchOrder pins the dispatch list: the resources the steps read
// (short-term, then pattern), then the steps that read nothing, then the
// rest, each group in paper order.
func TestDispatchOrder(t *testing.T) {
	r := NewRunner(smallConfig())
	names := func(selected []step) []string {
		var out []string
		for _, tk := range r.plan(selected) {
			if tk.d != nil {
				out = append(out, tk.d.name)
			} else {
				out = append(out, selected[tk.step].key)
			}
		}
		return out
	}
	for _, c := range []struct {
		selected []step
		want     []string
	}{
		{stepTable, []string{"short-term", "pattern",
			"fig1", "regional", "resilience", "adversarial",
			"table2", "fig3", "fig4", "fig5", "fig6", "table3", "prefetch", "deprioritize", "anomaly"}},
		{pick("fig5", "fig1"), []string{"pattern", "fig1", "fig5"}},
		{pick("fig4", "table3"), []string{"short-term", "pattern", "fig4", "table3"}},
		{pick("adversarial", "fig1"), []string{"fig1", "adversarial"}},
	} {
		if got := names(c.selected); !slices.Equal(got, c.want) {
			t.Errorf("plan = %v, want %v", got, c.want)
		}
	}
}

// TestNeedsFreeStepOverlapsMaterialize checks that a step that reads
// nothing does not wait for the resources: on two workers, with the
// datasets injected, it starts while the periodicity analysis still holds
// the "materialize datasets" span open.
func TestNeedsFreeStepOverlapsMaterialize(t *testing.T) {
	src := runner()
	short, err := src.ShortTermRecords()
	if err != nil {
		t.Fatal(err)
	}
	pattern, err := src.PatternRecords()
	if err != nil {
		t.Fatal(err)
	}
	cfg := src.Config()
	cfg.Jobs = 2
	r := NewRunner(cfg)
	tr := obs.NewTrace()
	r.Instrument(nil, tr)
	r.UseShortTermRecords(short)
	r.UsePatternRecords(pattern)

	var started time.Time
	selected := []step{
		{"periodic", "Periodic", "periodic", needPattern | needPeriodicity, func(r *Runner, _ *Report, _ io.Writer) error {
			_, err := r.periodicity()
			return err
		}},
		{"free", "Free", "free", 0, func(*Runner, *Report, io.Writer) error {
			started = time.Now()
			return nil
		}},
	}
	if _, err := r.schedule(context.Background(), io.Discard, selected); err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(tr.Spans(), func(s obs.SpanStat) bool { return s.Name == "materialize datasets" })
	if i < 0 {
		t.Fatal("no materialize datasets span")
	}
	mat := tr.Spans()[i]
	if end := mat.Start.Add(mat.Wall); !started.Before(end) {
		t.Errorf("needs-free step started %v after materialize ended", started.Sub(end))
	}
}

// TestResourceFailureOnce makes the pattern dataset's generation fail.
// Every reader gets the first error instead of generating again, and the
// run fails with it, charged to the first step in paper order that reads
// the dataset — at one worker and at four, on the full table and on a
// subset whose readers are all dispatched alongside the resource.
func TestResourceFailureOnce(t *testing.T) {
	for _, c := range []struct {
		jobs   int
		keys   []string
		charge string
	}{
		{1, Keys(), "table2"},
		{4, Keys(), "table2"},
		{4, []string{"fig5", "table3", "anomaly"}, "fig5"},
	} {
		cfg := smallConfig()
		cfg.Jobs = c.jobs
		r := NewRunner(cfg)
		var attempts atomic.Int32
		bad := r.PatternConfig()
		bad.TargetRequests = 0
		verr := bad.Validate()
		if verr == nil {
			t.Fatal("test config passes Validate")
		}
		r.pattern.cfg = func() synth.Config {
			attempts.Add(1)
			return bad
		}
		rep, err := r.Run(context.Background(), io.Discard, c.keys...)
		if err == nil || !strings.Contains(err.Error(), verr.Error()) {
			t.Fatalf("Jobs %d %v: err = %v, want the Validate error %q", c.jobs, c.keys, err, verr)
		}
		if n := attempts.Load(); n != 1 {
			t.Errorf("Jobs %d %v: generation attempted %d times, want once", c.jobs, c.keys, n)
		}
		charged := pick(c.charge)[0]
		i := slices.IndexFunc(rep.Steps, func(st StepStatus) bool { return st.Name == charged.title })
		if i < 0 || rep.Steps[i].State != StepFailed {
			t.Errorf("Jobs %d %v: %q not charged with the failure: %+v", c.jobs, c.keys, c.charge, rep.Steps)
		}
		if !strings.HasPrefix(err.Error(), charged.span+": ") {
			t.Errorf("Jobs %d %v: err = %v, want it labelled %q", c.jobs, c.keys, err, charged.span)
		}
	}
}
