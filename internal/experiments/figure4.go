package experiments

import (
	"fmt"
	"io"

	"repro/internal/domaincat"
	"repro/internal/logfmt"
	"repro/internal/stats"
	"repro/internal/taxonomy"
)

// Figure4Result carries the cacheability analysis of Fig. 4.
type Figure4Result struct {
	Heatmap *stats.Matrix
	// UncacheableShare is the request-weighted uncacheable fraction
	// (paper: ~55%).
	UncacheableShare float64
	// NeverShare/AlwaysShare are the fractions of domains that never /
	// always serve cacheable JSON (paper: ~50% / ~30%).
	NeverShare, AlwaysShare, MixedShare float64
	// CacheableByCategory maps category label to the mean cacheable
	// share of its domains, to check the industry split (News/Sports
	// high; Financial/Streaming/Gaming low).
	CacheableByCategory map[string]float64
}

// Figure4 regenerates Fig. 4: the heatmap of domain cacheability by
// industry category, plus the §4 cacheability statistics.
func (r *Runner) Figure4(w io.Writer) (Figure4Result, error) {
	rep, err := r.observeStep("fig4", w)
	return rep.Figure4, err
}

// figure4Observer folds the JSON records into per-domain cacheability
// counts and the request-weighted uncacheable share.
type figure4Observer struct {
	dc                *taxonomy.DomainCacheability
	json, uncacheable int64
}

func newFigure4(*Runner) observer {
	// Generated names carry keywords; Infer covers them.
	return &figure4Observer{dc: taxonomy.NewDomainCacheability(domaincat.NewCatalog())}
}

func (o *figure4Observer) observe(_ stepNeed, rec *logfmt.Record) {
	if !rec.IsJSON() {
		return
	}
	o.dc.Observe(rec)
	o.json++
	if rec.Cache == logfmt.CacheUncacheable {
		o.uncacheable++
	}
}

func (o *figure4Observer) report(rep *Report, w io.Writer) {
	never, always, mixed := o.dc.PolicyShares()
	res := Figure4Result{
		Heatmap:             o.dc.Heatmap(10),
		NeverShare:          never,
		AlwaysShare:         always,
		MixedShare:          mixed,
		CacheableByCategory: o.dc.CategoryMeans(),
	}
	if o.json > 0 {
		res.UncacheableShare = float64(o.uncacheable) / float64(o.json)
	}
	rep.Figure4 = res

	fmt.Fprintln(w, "Figure 4: Heatmap of domain cacheability by category")
	fmt.Fprintln(w, "(rows: categories; columns: share of the domain's JSON that is cacheable)")
	fmt.Fprint(w, stats.Heatmap(res.Heatmap))
	compareRow(w, "JSON traffic uncacheable", "~55%", pct(res.UncacheableShare))
	compareRow(w, "domains never cacheable", "~50%", pct(res.NeverShare))
	compareRow(w, "domains always cacheable", "~30%", pct(res.AlwaysShare))
	compareRow(w, "News/Media mean cacheable share", "high",
		pct(res.CacheableByCategory[domaincat.CategoryNewsMedia.String()]))
	compareRow(w, "Financial mean cacheable share", "low",
		pct(res.CacheableByCategory[domaincat.CategoryFinancial.String()]))
	compareRow(w, "Gaming mean cacheable share", "low",
		pct(res.CacheableByCategory[domaincat.CategoryGaming.String()]))
}
