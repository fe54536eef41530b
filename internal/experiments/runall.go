package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"repro/internal/obs"
)

// StepState classifies how one step of a run ended.
type StepState uint8

const (
	// StepCompleted means the step ran to completion.
	StepCompleted StepState = iota
	// StepSkipped means the run was cancelled (or an earlier step
	// failed) before the step started.
	StepSkipped
	// StepFailed means the step returned an error.
	StepFailed
)

// String returns the lowercase name of the state.
func (s StepState) String() string {
	switch s {
	case StepCompleted:
		return "completed"
	case StepSkipped:
		return "skipped"
	default:
		return "failed"
	}
}

// StepStatus records one step's outcome for the report, so a
// cancelled or failed run still says exactly what it finished.
type StepStatus struct {
	// Name is the section title ("Figure 1", ...).
	Name string
	// State is how the step ended.
	State StepState
	// Wall is the step's wall time, recorded for completed and failed
	// steps alike (zero for skipped steps, which never started).
	Wall time.Duration
	// Records and Bytes are the record and body-byte counts of the
	// shared datasets the step read (zero for steps that generate their
	// own inputs and for steps that never ran) — the per-step data
	// provenance carried into run manifests.
	Records int64
	Bytes   int64
}

// Report holds every experiment's structured result.
type Report struct {
	Figure1      Figure1Result
	Table2       Table2Result
	Figure3      Figure3Result
	Figure4      Figure4Result
	Periods      *PeriodicityResult
	Table3       Table3Result
	Prefetch     PrefetchResult
	Deprioritize DeprioritizeResult
	Anomaly      AnomalyResult
	Regional     RegionalResult
	Resilience   ResilienceResult
	Adversarial  AdversarialResult

	// Steps is the per-step outcome ledger, in paper order. On a
	// cancelled or failed run it records which results above are
	// populated.
	Steps []StepStatus
}

// Completed returns how many steps finished.
func (rep *Report) Completed() int {
	n := 0
	for _, st := range rep.Steps {
		if st.State == StepCompleted {
			n++
		}
	}
	return n
}

// WriteStepSummary prints one line per step with its outcome — the
// partial-report footer of an interrupted run. Completed and failed
// steps include their wall time; skipped steps never started.
func (rep *Report) WriteStepSummary(w io.Writer) {
	for _, st := range rep.Steps {
		switch st.State {
		case StepSkipped:
			fmt.Fprintf(w, "  %-44s %s\n", st.Name, st.State)
		default:
			fmt.Fprintf(w, "  %-44s %s (%s)\n", st.Name, st.State, st.Wall.Round(time.Millisecond))
		}
	}
}

// ManifestSteps projects the step ledger into run-manifest entries, the
// form run-<id>.json records.
func (rep *Report) ManifestSteps() []obs.ManifestStep {
	out := make([]obs.ManifestStep, len(rep.Steps))
	for i, st := range rep.Steps {
		out[i] = obs.ManifestStep{
			Name:    st.Name,
			Status:  st.State.String(),
			WallNS:  int64(st.Wall),
			Records: st.Records,
			Bytes:   st.Bytes,
		}
	}
	return out
}

// stepNeed is a bitmask of the shared resources a step reads. The
// scheduler builds the union of the selected steps' needs before it
// hands out any step, and starts the steps that need nothing alongside
// it; the steps themselves — which all draw on local RNGs and never
// mutate shared state — can run in any order, on any number of
// goroutines, and still compute the same results.
type stepNeed uint8

const (
	// needShort is the §4 short-term dataset (ShortTermRecords).
	needShort stepNeed = 1 << iota
	// needPattern is the §5 pattern dataset (PatternRecords).
	needPattern
	// needPeriodicity is the memoized §5.1 periodicity analysis, which
	// itself consumes the pattern dataset.
	needPeriodicity
)

// step is one row of the exhibit table: fn runs it, unless it is an
// observer (see runObserver), which observer constructs.
type step struct {
	key      string // selector for Run and jsonrepro -only
	title    string // section heading and ledger name
	span     string // tracer span name and error-wrapping label
	needs    stepNeed
	fn       func(r *Runner, rep *Report, w io.Writer) error
	observer func(r *Runner) observer
}

// stepTable is every exhibit in paper order: the one table full runs, key
// subsets, the -only usage text and the unknown-key error all read.
// Steps that generate their own inputs (Figure 1's arrival sketch, the
// regional and resilience simulations) declare no needs.
var stepTable = []step{
	{"fig1", "Figure 1", "figure 1", 0, func(r *Runner, rep *Report, w io.Writer) (err error) {
		rep.Figure1, err = r.Figure1(w)
		return
	}, nil},
	{"table2", "Table 2", "table 2", needShort | needPattern, nil, newTable2},
	{"fig3", "Figure 3 and §4 request/response types", "figure 3", needShort, nil, newFigure3},
	{"fig4", "Figure 4 and §4 cacheability", "figure 4", needShort, nil, newFigure4},
	{"fig5", "Figure 5 and §5.1 periodicity", "figure 5", needPattern | needPeriodicity, func(r *Runner, rep *Report, w io.Writer) (err error) {
		rep.Periods, err = r.Figure5(w)
		return
	}, nil},
	{"fig6", "Figure 6", "figure 6", needPattern | needPeriodicity, func(r *Runner, rep *Report, w io.Writer) (err error) {
		_, err = r.Figure6(w)
		return
	}, nil},
	{"table3", "Table 3 and §5.2 prediction", "table 3", needPattern, func(r *Runner, rep *Report, w io.Writer) (err error) {
		rep.Table3, err = r.Table3(w)
		return
	}, nil},
	{"prefetch", "Prefetch simulation (§5.2 implication)", "prefetch", needPattern, func(r *Runner, rep *Report, w io.Writer) (err error) {
		rep.Prefetch, err = r.Prefetch(w)
		return
	}, nil},
	{"deprioritize", "Deprioritization (§7 implication)", "deprioritize", needPattern | needPeriodicity, func(r *Runner, rep *Report, w io.Writer) (err error) {
		rep.Deprioritize, err = r.Deprioritize(w)
		return
	}, nil},
	{"anomaly", "Anomaly detection (§5 applications)", "anomaly", needPattern, func(r *Runner, rep *Report, w io.Writer) (err error) {
		rep.Anomaly, err = r.Anomaly(w)
		return
	}, nil},
	{"regional", "Regional vantages (§7 limitation)", "regional", 0, func(r *Runner, rep *Report, w io.Writer) (err error) {
		rep.Regional, err = r.Regional(w)
		return
	}, nil},
	{"resilience", "Resilience under origin faults (robustness)", "resilience", 0, func(r *Runner, rep *Report, w io.Writer) (err error) {
		rep.Resilience, err = r.Resilience(w)
		return
	}, nil},
	{"adversarial", "Adversarial traffic and edge defenses (robustness)", "adversarial", 0, func(r *Runner, rep *Report, w io.Writer) (err error) {
		rep.Adversarial, err = r.Adversarial(w)
		return
	}, nil},
}

// Keys lists the step table's keys in paper order.
func Keys() []string {
	keys := make([]string, len(stepTable))
	for i, st := range stepTable {
		keys[i] = st.key
	}
	return keys
}

// RunAll is RunAllContext without cancellation.
func (r *Runner) RunAll(w io.Writer) (*Report, error) {
	return r.RunAllContext(context.Background(), w)
}

// RunAllContext runs every step of a full run; see Run.
func (r *Runner) RunAllContext(ctx context.Context, w io.Writer) (*Report, error) {
	return r.Run(ctx, w, Keys()...)
}

// Run executes the steps named by keys — in paper order, whatever order
// keys come in — writing each one's section to w. An unknown key fails
// before any work starts. When the runner is instrumented (see
// Instrument), each step runs inside its own tracer span, so a -trace
// run prints where the wall time went.
//
// Cancelling ctx stops the run at the next step boundary: the returned
// Report is still valid, with completed steps' results populated and
// the rest marked skipped in Steps, and the error is ctx's error. A
// step failure likewise returns the partial report alongside the error.
func (r *Runner) Run(ctx context.Context, w io.Writer, keys ...string) (*Report, error) {
	selected, err := selectSteps(keys)
	if err != nil {
		return nil, err
	}
	return r.schedule(ctx, out(w), selected)
}

// selectSteps returns the rows of the step table keys name, in paper
// order, or an error naming an unknown key.
func selectSteps(keys []string) ([]step, error) {
	want := make(map[string]bool, len(keys))
	for _, k := range keys {
		if !slices.ContainsFunc(stepTable, func(st step) bool { return st.key == k }) {
			return nil, fmt.Errorf("experiments: unknown step %q (have %s)", k,
				strings.Join(Keys(), ", "))
		}
		want[k] = true
	}
	var selected []step
	for _, st := range stepTable {
		if want[st.key] {
			selected = append(selected, st)
		}
	}
	return selected, nil
}
