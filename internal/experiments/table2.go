package experiments

import (
	"fmt"
	"io"

	"repro/internal/logfmt"
	"repro/internal/stats"
)

// Table2Result summarizes the generated datasets like the paper's
// Table 2 (dataset inventory).
type Table2Result struct {
	Short, Pattern *logfmt.DatasetSummary
}

// Table2 regenerates Table 2: record count, duration, and distinct
// domains of each dataset. The generated datasets are scaled-down
// stand-ins; the row shape (wide-short vs narrow-long) is what carries.
func (r *Runner) Table2(w io.Writer) (Table2Result, error) {
	rep, err := r.observeStep("table2", w)
	return rep.Table2, err
}

// table2Observer summarizes each dataset a record belongs to.
type table2Observer struct {
	res Table2Result
	// scale is the -scale suffix of the short-term row: set only when
	// that dataset was synthesized at a scale, not read from a file.
	scale string
	// same is set when one file is both datasets: its records fold
	// once, into Short, which the report also prints as Long-term.
	same bool
}

func newTable2(r *Runner) observer {
	o := &table2Observer{res: Table2Result{
		Short:   logfmt.NewDatasetSummary("Short-term"),
		Pattern: logfmt.NewDatasetSummary("Long-term"),
	}}
	if r.file == "" {
		o.scale = fmt.Sprintf(" (scale %g)", r.cfg.Scale)
	}
	return o
}

func (o *table2Observer) observe(d stepNeed, rec *logfmt.Record) {
	switch {
	case d&needShort != 0 && d&needPattern != 0:
		o.same = true
		o.res.Short.Observe(rec)
	case d&needShort != 0:
		o.res.Short.Observe(rec)
	case d&needPattern != 0:
		o.res.Pattern.Observe(rec)
	}
}

func (o *table2Observer) report(rep *Report, w io.Writer) {
	res := o.res
	if o.same {
		long := *res.Short
		long.Name = res.Pattern.Name
		res.Pattern = &long
	}
	rep.Table2 = res
	fmt.Fprintln(w, "Table 2: Summary of our datasets (scaled)")
	var tb stats.Table
	tb.SetHeader("Dataset", "# of Logs", "Duration", "# of Domains", "# of Clients")
	for _, d := range []*logfmt.DatasetSummary{res.Short, res.Pattern} {
		tb.AddRowf(d.Name, d.Records(), d.Duration().Round(1e9), d.Domains(), d.Clients())
	}
	fmt.Fprint(w, tb.String())
	compareRow(w, "short-term shape", "25M logs / 10 mins / ~5K domains",
		fmt.Sprintf("%d logs / %s / %d domains%s",
			res.Short.Records(), res.Short.Duration().Round(1e9), res.Short.Domains(), o.scale))
	compareRow(w, "long-term shape", "10M logs / 24 hrs / ~170 domains",
		fmt.Sprintf("%d logs / %s / %d domains",
			res.Pattern.Records(), res.Pattern.Duration().Round(1e9), res.Pattern.Domains()))
}
