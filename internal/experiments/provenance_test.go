package experiments

import (
	"io"
	"testing"

	"repro/internal/obs"
)

// TestRunAllSpanHierarchyAndProvenance runs the full report on one
// worker and checks its provenance: a RunAll root span with one child
// per step, dataset spans nested under the materialize phase, per-step
// record/byte tallies in the ledger, and readiness flipping once both
// datasets exist.
func TestRunAllSpanHierarchyAndProvenance(t *testing.T) {
	r := NewRunner(smallConfig())
	reg := obs.NewRegistry()
	tr := obs.NewTrace()
	r.Instrument(reg, tr)
	health := &obs.Health{}
	r.NotifyReady(health)
	if health.Ready() {
		t.Fatal("ready before the run started")
	}

	rep, err := r.RunAll(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !health.Ready() {
		t.Error("not ready after both datasets materialized")
	}

	spans := tr.Spans()
	byName := map[string]obs.SpanStat{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	root, ok := byName["RunAll"]
	if !ok || root.Depth != 0 {
		t.Fatalf("no RunAll root span in %d spans", len(spans))
	}
	for _, step := range []string{"table 2", "figure 3", "figure 5", "resilience"} {
		s, ok := byName[step]
		if !ok {
			t.Errorf("step %q has no span", step)
			continue
		}
		if s.ParentID != root.ID || s.Depth != 1 {
			t.Errorf("step %q parent/depth = %d/%d, want %d/1", step, s.ParentID, s.Depth, root.ID)
		}
	}
	// Datasets materialize up front at every width: the synth spans sit
	// under "materialize datasets", depth 2.
	for _, ds := range []string{"synth short-term dataset", "synth pattern dataset"} {
		s, ok := byName[ds]
		if !ok {
			t.Errorf("dataset %q has no span", ds)
			continue
		}
		if s.Depth != 2 {
			t.Errorf("dataset %q depth = %d, want 2 (nested under materialize)", ds, s.Depth)
		}
		if s.Records <= 0 || s.Bytes <= 0 {
			t.Errorf("dataset %q tallies = %d records / %d bytes", ds, s.Records, s.Bytes)
		}
	}

	// Ledger provenance: steps that read a dataset record its volume;
	// self-contained steps record zero.
	steps := map[string]StepStatus{}
	for _, st := range rep.Steps {
		steps[st.Name] = st
	}
	if st := steps["Table 2"]; st.Records <= 0 || st.Bytes <= 0 {
		t.Errorf("Table 2 provenance = %d records / %d bytes, want > 0", st.Records, st.Bytes)
	}
	if st := steps["Figure 1"]; st.Records != 0 || st.Bytes != 0 {
		t.Errorf("Figure 1 provenance = %d/%d, want 0/0 (generates its own input)", st.Records, st.Bytes)
	}
	// Table 2 reads both datasets, Figure 3 only the short-term one.
	if steps["Table 2"].Records <= steps["Figure 3 and §4 request/response types"].Records {
		t.Errorf("Table 2 (both datasets) records %d not > Figure 3 (short only) records %d",
			steps["Table 2"].Records, steps["Figure 3 and §4 request/response types"].Records)
	}

	// ManifestSteps projects the ledger 1:1.
	ms := rep.ManifestSteps()
	if len(ms) != len(rep.Steps) {
		t.Fatalf("manifest steps = %d, want %d", len(ms), len(rep.Steps))
	}
	for i, m := range ms {
		st := rep.Steps[i]
		if m.Name != st.Name || m.Status != st.State.String() ||
			m.WallNS != int64(st.Wall) || m.Records != st.Records || m.Bytes != st.Bytes {
			t.Errorf("manifest step %d = %+v, want projection of %+v", i, m, st)
		}
	}
}

// TestRunAllParallelMaterializeSpan checks the trace shape on several
// workers: RunAll → materialize datasets → dataset, steps on the root.
func TestRunAllParallelMaterializeSpan(t *testing.T) {
	cfg := smallConfig()
	cfg.Jobs = 4
	r := NewRunner(cfg)
	tr := obs.NewTrace()
	r.Instrument(obs.NewRegistry(), tr)

	if _, err := r.RunAll(io.Discard); err != nil {
		t.Fatal(err)
	}
	byName := map[string]obs.SpanStat{}
	for _, s := range tr.Spans() {
		byName[s.Name] = s
	}
	root := byName["RunAll"]
	mat, ok := byName["materialize datasets"]
	if !ok {
		t.Fatal("parallel run has no materialize span")
	}
	if mat.ParentID != root.ID || mat.Depth != 1 {
		t.Errorf("materialize parent/depth = %d/%d, want %d/1", mat.ParentID, mat.Depth, root.ID)
	}
	for _, ds := range []string{"synth short-term dataset", "synth pattern dataset"} {
		s, ok := byName[ds]
		if !ok {
			t.Errorf("dataset %q has no span", ds)
			continue
		}
		if s.ParentID != mat.ID {
			t.Errorf("dataset %q parent = %d, want materialize %d", ds, s.ParentID, mat.ID)
		}
	}
	// Worker-run steps hang off the root, tagged with their worker lane.
	st, ok := byName["table 2"]
	if !ok {
		t.Fatal("no table 2 span in parallel run")
	}
	if st.ParentID != root.ID {
		t.Errorf("parallel step parent = %d, want root %d", st.ParentID, root.ID)
	}
	found := false
	for _, a := range st.Attrs {
		if a.Key == "worker" {
			found = true
		}
	}
	if !found {
		t.Errorf("parallel step span missing worker attr: %+v", st.Attrs)
	}
}
