package experiments

import (
	"fmt"
	"io"

	"repro/internal/flows"
	"repro/internal/logfmt"
	"repro/internal/periodicity"
	"repro/internal/stats"
)

// PeriodicityResult carries the §5.1 outcomes behind Fig. 5, Fig. 6, and
// the periodic-traffic statistics.
type PeriodicityResult struct {
	Analysis *periodicity.Result
	// PeriodicShare is the fraction of JSON requests that are periodic
	// (paper: 6.3%).
	PeriodicShare float64
	// MajorityShare is the fraction of periodic objects where >50% of
	// clients are periodic (paper: 20%).
	MajorityShare float64
	// UncacheableShare / UploadShare of periodic traffic (paper: 56.2% /
	// 78%).
	UncacheableShare float64
	UploadShare      float64
	// Histogram is the Fig. 5 object-period histogram.
	Histogram *stats.Histogram
	// PeriodicObjects is the number of objects with a detected period.
	PeriodicObjects int
	AnalyzedObjects int
}

// periodicity runs the §5.1 pipeline at most once per runner; a failure
// is kept and returned to every later caller.
func (r *Runner) periodicity() (*PeriodicityResult, error) {
	r.perMu.Lock()
	defer r.perMu.Unlock()
	if r.periodicityRes != nil || r.perErr != nil {
		return r.periodicityRes, r.perErr
	}
	recs, err := r.PatternRecords()
	if err != nil {
		r.perErr = err
		return nil, err
	}
	ex := flows.NewExtractor()
	ex.Filter = logfmt.JSONOnly
	for i := range recs {
		ex.Observe(&recs[i])
	}
	cfg := periodicity.DefaultConfig()
	cfg.Detector.Permutations = r.cfg.Permutations
	cfg.SampleBin = r.cfg.SampleBin
	cfg.Seed = r.cfg.Seed
	analysis := periodicity.Analyze(ex.Flows(), ex.TotalObserved(), cfg)

	res := &PeriodicityResult{
		Analysis:         analysis,
		PeriodicShare:    analysis.PeriodicShare(),
		MajorityShare:    analysis.ShareAboveMajority(),
		UncacheableShare: analysis.PeriodicUncacheableShare(),
		UploadShare:      analysis.PeriodicUploadShare(),
		Histogram:        analysis.PeriodHistogram(periodicity.DefaultPeriodEdges()),
		PeriodicObjects:  len(analysis.PeriodicObjects()),
		AnalyzedObjects:  len(analysis.Objects),
	}
	r.periodicityRes = res
	return res, nil
}

// Figure5 regenerates Fig. 5: the histogram of detected JSON object
// periods, with spikes at round machine-to-machine intervals.
func (r *Runner) Figure5(w io.Writer) (*PeriodicityResult, error) {
	w = out(w)
	res, err := r.periodicity()
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "Figure 5: Histogram of JSON object periods")
	labels := []string{"30s", "1m", "2m", "3m", "5m", "10m", "15m", "30m", "1h"}
	values := make([]float64, len(labels))
	for i := 0; i < res.Histogram.NumBins() && i < len(labels); i++ {
		values[i] = float64(res.Histogram.Count(i))
	}
	fmt.Fprint(w, stats.BarChart(labels, values, 50))
	fmt.Fprintf(w, "  analyzed %d object flows; %d periodic\n",
		res.AnalyzedObjects, res.PeriodicObjects)
	compareRow(w, "JSON requests that are periodic", "6.3%", pct(res.PeriodicShare))
	compareRow(w, "periodic traffic uncacheable", "56.2%", pct(res.UncacheableShare))
	compareRow(w, "periodic traffic upload (POST)", "78%", pct(res.UploadShare))
	return res, nil
}

// Figure6 regenerates Fig. 6: the CDF of the share of periodic clients
// across periodic objects.
func (r *Runner) Figure6(w io.Writer) (*PeriodicityResult, error) {
	w = out(w)
	res, err := r.periodicity()
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "Figure 6: CDF of the percent of periodic clients across objects")
	cdf := res.Analysis.PeriodicClientCDF()
	fmt.Fprint(w, stats.LineChart(cdf.Points(40), 60, 12))
	compareRow(w, "periodic objects with >50% periodic clients", "20%", pct(res.MajorityShare))
	return res, nil
}
