package experiments

import (
	"fmt"
	"io"

	"repro/internal/stats"
	"repro/internal/taxonomy"
	"repro/internal/uastring"
)

// Figure3Result carries the §4 traffic-source characterization (Fig. 3)
// plus the request-type and response-size statistics reported in the
// same section's text.
type Figure3Result struct {
	Char *taxonomy.Characterization

	MobileShare   float64 // paper: >= 55% (incl. browser)
	EmbeddedShare float64 // paper: 12%
	DesktopShare  float64
	UnknownShare  float64 // paper: 24%
	NonBrowser    float64 // paper: 88%
	MobileBrowser float64 // paper: 2.5%
	GETShare      float64 // paper: 84%
	POSTOfRest    float64 // paper: 96%
	// JSONvsHTML median and p75 deltas (paper: 24% and 87% smaller).
	MedianSmaller float64
	P75Smaller    float64
}

// Figure3 regenerates Fig. 3 (JSON requests by device type) and the §4
// request/response statistics from one taxonomy characterization pass
// over the short-term dataset.
func (r *Runner) Figure3(w io.Writer) (Figure3Result, error) {
	w = out(w)
	recs, err := r.ShortTermRecords()
	if err != nil {
		return Figure3Result{}, err
	}
	// ObserveAny takes every record type, so JSON filtering and HTML size
	// collection happen in the same pass.
	char := taxonomy.NewCharacterization()
	for i := range recs {
		char.ObserveAny(&recs[i])
	}

	res := Figure3Result{
		Char:          char,
		MobileShare:   char.DeviceShare(uastring.DeviceMobile),
		EmbeddedShare: char.DeviceShare(uastring.DeviceEmbedded),
		DesktopShare:  char.DeviceShare(uastring.DeviceDesktop),
		UnknownShare:  char.DeviceShare(uastring.DeviceUnknown),
		NonBrowser:    char.NonBrowserShare(),
		MobileBrowser: char.MobileBrowserShare(),
		GETShare:      char.GETShare(),
		POSTOfRest:    char.POSTShareOfRest(),
	}
	j50, j75, h50, h75 := char.SizeQuantiles()
	if h50 > 0 {
		res.MedianSmaller = 1 - j50/h50
	}
	if h75 > 0 {
		res.P75Smaller = 1 - j75/h75
	}

	fmt.Fprintln(w, "Figure 2: JSON traffic taxonomy (measured shares in brackets)")
	fmt.Fprint(w, taxonomy.Figure2Tree(char))
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Figure 3: Categorization of JSON requests by device type")
	labels := []string{"Mobile", "Unknown", "Embedded", "Desktop"}
	values := []float64{res.MobileShare, res.UnknownShare, res.EmbeddedShare, res.DesktopShare}
	fmt.Fprint(w, stats.BarChart(labels, values, 50))
	compareRow(w, "mobile share of JSON requests", ">=55%", pct(res.MobileShare))
	compareRow(w, "embedded share", "12%", pct(res.EmbeddedShare))
	compareRow(w, "unknown share", "24%", pct(res.UnknownShare))
	compareRow(w, "non-browser traffic", "88%", pct(res.NonBrowser))
	compareRow(w, "mobile browser traffic", "2.5%", pct(res.MobileBrowser))

	mix := char.UAStringMix()
	compareRow(w, "UA-string mix mobile/embedded/desktop", "73%/17%/3%",
		fmt.Sprintf("%s/%s/%s", pct(mix["Mobile"]), pct(mix["Embedded"]), pct(mix["Desktop"])))

	fmt.Fprintln(w, "Request type (§4):")
	compareRow(w, "GET (download) share", "84%", pct(res.GETShare))
	compareRow(w, "POST share of remainder", "96%", pct(res.POSTOfRest))

	fmt.Fprintln(w, "Response size (§4):")
	compareRow(w, "JSON smaller than HTML at median", "24%", pct(res.MedianSmaller))
	compareRow(w, "JSON smaller than HTML at p75", "87%", pct(res.P75Smaller))
	return res, nil
}
