package taxonomy

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/domaincat"
	"repro/internal/logfmt"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/uastring"
)

var t0 = time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC)

func jsonRec(ua, method string, cache logfmt.CacheStatus, bytes int64) logfmt.Record {
	return logfmt.Record{
		Time: t0, ClientID: 1, Method: method,
		URL: "https://api.news0.example.com/v1/x", UserAgent: ua,
		MIMEType: "application/json", Status: 200, Bytes: bytes, Cache: cache,
	}
}

const (
	uaApp     = "NewsApp/3.1 (iPhone; iOS 12.2)"
	uaBrowser = "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/74.0.3729.131 Safari/537.36"
	uaMobileB = "Mozilla/5.0 (iPhone; CPU iPhone OS 12_2 like Mac OS X) AppleWebKit/605.1.15 (KHTML, like Gecko) Version/12.1 Mobile/15E148 Safari/604.1"
	uaConsole = "Mozilla/5.0 (PlayStation 4 6.51) AppleWebKit/605.1.15 (KHTML, like Gecko)"
)

func buildChar() *Characterization {
	c := NewCharacterization()
	// 4 mobile app (1 POST), 2 mobile browser, 2 unknown, 1 desktop
	// browser, 1 console.
	feeds := []struct {
		ua, method string
		cache      logfmt.CacheStatus
		bytes      int64
	}{
		{uaApp, "GET", logfmt.CacheHit, 400},
		{uaApp, "GET", logfmt.CacheMiss, 600},
		{uaApp, "GET", logfmt.CacheUncacheable, 800},
		{uaApp, "POST", logfmt.CacheUncacheable, 100},
		{uaMobileB, "GET", logfmt.CacheHit, 500},
		{uaMobileB, "GET", logfmt.CacheUncacheable, 700},
		{"", "GET", logfmt.CacheUncacheable, 300},
		{"", "POST", logfmt.CacheUncacheable, 200},
		{uaBrowser, "GET", logfmt.CacheHit, 900},
		{uaConsole, "GET", logfmt.CacheMiss, 1000},
	}
	for _, f := range feeds {
		r := jsonRec(f.ua, f.method, f.cache, f.bytes)
		c.Observe(&r)
	}
	return c
}

func TestCharacterizationShares(t *testing.T) {
	c := buildChar()
	if c.Total != 10 {
		t.Fatalf("Total = %d", c.Total)
	}
	if got := c.DeviceShare(uastring.DeviceMobile); got != 0.6 {
		t.Errorf("mobile share = %v", got)
	}
	if got := c.DeviceShare(uastring.DeviceEmbedded); got != 0.1 {
		t.Errorf("embedded share = %v", got)
	}
	if got := c.DeviceShare(uastring.DeviceUnknown); got != 0.2 {
		t.Errorf("unknown share = %v", got)
	}
	if got := c.NonBrowserShare(); got != 0.7 {
		t.Errorf("non-browser share = %v", got)
	}
	if got := c.MobileBrowserShare(); got != 0.2 {
		t.Errorf("mobile browser share = %v", got)
	}
	if got := c.GETShare(); got != 0.8 {
		t.Errorf("GET share = %v", got)
	}
	if got := c.POSTShareOfRest(); got != 1.0 {
		t.Errorf("POST of rest = %v", got)
	}
	// 5 of 10 records are uncacheable.
	if got := c.UncacheableShare(); got != 0.5 {
		t.Errorf("uncacheable = %v", got)
	}
}

func TestCharacterizationEmpty(t *testing.T) {
	c := NewCharacterization()
	if c.NonBrowserShare() != 0 || c.UncacheableShare() != 0 ||
		c.MobileBrowserShare() != 0 || c.POSTShareOfRest() != 0 {
		t.Error("empty characterization should report zeros")
	}
	if c.UAStringMix() != nil {
		t.Error("empty UA mix should be nil")
	}
}

func TestUAStringMix(t *testing.T) {
	c := buildChar()
	mix := c.UAStringMix()
	// Distinct UAs: uaApp (mobile), uaMobileB (mobile), uaBrowser
	// (desktop), uaConsole (embedded). Empty UA not counted.
	if math.Abs(mix["Mobile"]-0.5) > 1e-9 {
		t.Errorf("mobile UA mix = %v", mix["Mobile"])
	}
	if math.Abs(mix["Desktop"]-0.25) > 1e-9 || math.Abs(mix["Embedded"]-0.25) > 1e-9 {
		t.Errorf("mix = %v", mix)
	}
}

func TestObserveAnyRoutesAndSizes(t *testing.T) {
	c := NewCharacterization()
	j := jsonRec(uaApp, "GET", logfmt.CacheHit, 400)
	h := jsonRec(uaBrowser, "GET", logfmt.CacheHit, 2000)
	h.MIMEType = "text/html"
	img := jsonRec(uaBrowser, "GET", logfmt.CacheHit, 9000)
	img.MIMEType = "image/jpeg"
	c.ObserveAny(&j)
	c.ObserveAny(&h)
	c.ObserveAny(&img)
	if c.Total != 1 {
		t.Errorf("JSON total = %d", c.Total)
	}
	if len(c.HTMLSizes) != 1 || c.HTMLSizes[0] != 2000 {
		t.Errorf("HTML sizes = %v", c.HTMLSizes)
	}
	j50, _, h50, _ := c.SizeQuantiles()
	if j50 != 400 || h50 != 2000 {
		t.Errorf("quantiles = %v %v", j50, h50)
	}
}

func TestMergeMatchesSequential(t *testing.T) {
	all := buildChar()
	a := NewCharacterization()
	b := NewCharacterization()
	feeds := []logfmt.Record{
		jsonRec(uaApp, "GET", logfmt.CacheHit, 400),
		jsonRec(uaApp, "GET", logfmt.CacheMiss, 600),
		jsonRec(uaApp, "GET", logfmt.CacheUncacheable, 800),
		jsonRec(uaApp, "POST", logfmt.CacheUncacheable, 100),
		jsonRec(uaMobileB, "GET", logfmt.CacheHit, 500),
		jsonRec(uaMobileB, "GET", logfmt.CacheUncacheable, 700),
		jsonRec("", "GET", logfmt.CacheUncacheable, 300),
		jsonRec("", "POST", logfmt.CacheUncacheable, 200),
		jsonRec(uaBrowser, "GET", logfmt.CacheHit, 900),
		jsonRec(uaConsole, "GET", logfmt.CacheMiss, 1000),
	}
	for i := range feeds {
		if i%2 == 0 {
			a.Observe(&feeds[i])
		} else {
			b.Observe(&feeds[i])
		}
	}
	a.Merge(b)
	if a.Total != all.Total || a.BrowserReqs != all.BrowserReqs ||
		a.Uncacheable != all.Uncacheable || len(a.JSONSizes) != len(all.JSONSizes) {
		t.Error("merge diverged from sequential")
	}
	if a.GETShare() != all.GETShare() {
		t.Error("GET share diverged")
	}
	if len(a.UAStrings) != len(all.UAStrings) {
		t.Error("UA strings diverged")
	}
}

func TestDomainCacheability(t *testing.T) {
	cat := domaincat.NewCatalog()
	cat.Register("api.news0.example.com", domaincat.CategoryNewsMedia)
	cat.Register("api.bank0.example.com", domaincat.CategoryFinancial)
	cat.Register("api.mixed0.example.com", domaincat.CategorySports)
	d := NewDomainCacheability(cat)
	obs := func(host string, cache logfmt.CacheStatus, n int) {
		for i := 0; i < n; i++ {
			r := jsonRec(uaApp, "GET", cache, 100)
			r.URL = "https://" + host + "/v1/x"
			d.Observe(&r)
		}
	}
	obs("api.news0.example.com", logfmt.CacheHit, 10)
	obs("api.bank0.example.com", logfmt.CacheUncacheable, 10)
	obs("api.mixed0.example.com", logfmt.CacheHit, 5)
	obs("api.mixed0.example.com", logfmt.CacheUncacheable, 5)
	never, always, mixed := d.PolicyShares()
	if never != 1.0/3 || always != 1.0/3 || mixed != 1.0/3 {
		t.Errorf("policy shares = %v %v %v", never, always, mixed)
	}
	means := d.CategoryMeans()
	if len(means) != 3 || means["News/Media"] != 1 || means["Financial Service"] != 0 || means["Sports"] != 0.5 {
		t.Errorf("category means = %v", means)
	}
	m := d.Heatmap(10)
	// News row: 100% cacheable -> last bucket.
	newsRow := rowOf(m, "News/Media")
	if m.At(newsRow, 9) != 1 {
		t.Errorf("news heat = %v", m.At(newsRow, 9))
	}
	finRow := rowOf(m, "Financial Service")
	if m.At(finRow, 0) != 1 {
		t.Errorf("financial heat = %v", m.At(finRow, 0))
	}
	sportsRow := rowOf(m, "Sports")
	if m.At(sportsRow, 5) != 1 {
		t.Errorf("sports heat: 50%% should land in bucket 5, row = %v", sportsRow)
	}
}

func rowOf(m *stats.Matrix, label string) int {
	for i, l := range m.RowLabels {
		if l == label {
			return i
		}
	}
	return -1
}

func TestFigure2Tree(t *testing.T) {
	// Without data: structure only.
	bare := Figure2Tree(nil)
	for _, want := range []string{"Traffic Source", "Request Type", "Response Type",
		"Mobile", "Embedded", "Cacheability", "Download (GET)"} {
		if !strings.Contains(bare, want) {
			t.Errorf("tree missing %q", want)
		}
	}
	if strings.Contains(bare, "[") {
		t.Error("bare tree should have no share annotations")
	}
	// With data: annotated shares.
	c := buildChar()
	annotated := Figure2Tree(c)
	if !strings.Contains(annotated, "[60.0%]") { // mobile share from buildChar
		t.Errorf("annotated tree missing mobile share:\n%s", annotated)
	}
	if !strings.Contains(annotated, "[80.0%]") { // GET share
		t.Errorf("annotated tree missing GET share:\n%s", annotated)
	}
}

// TestMemoizedClassMatchesClassify folds a seeded generated capture and
// checks the per-agent memo against uastring.Classify: every remembered
// class, the per-record browser and device counts, and UAStringMix as
// the distinct agents classified one by one give it.
func TestMemoizedClassMatchesClassify(t *testing.T) {
	c := NewCharacterization()
	var total, browser, mobile, embedded int64
	devices := map[string]int64{}
	mixCounts := map[string]int{}
	distinct := map[string]bool{}
	err := synth.Generate(synth.ShortTermConfig(42, 0.0005), func(r *logfmt.Record) error {
		c.ObserveAny(r)
		if !r.IsJSON() {
			return nil
		}
		cls := uastring.Classify(r.UserAgent)
		total++
		devices[cls.Device.String()]++
		if cls.Browser {
			browser++
			switch cls.Device {
			case uastring.DeviceMobile:
				mobile++
			case uastring.DeviceEmbedded:
				embedded++
			}
		}
		if r.UserAgent != "" && !distinct[r.UserAgent] {
			distinct[r.UserAgent] = true
			mixCounts[cls.Device.String()]++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(distinct) < 10 || len(c.UAStrings) != len(distinct) {
		t.Fatalf("memo holds %d agents, the capture has %d distinct", len(c.UAStrings), len(distinct))
	}
	for ua, cls := range c.UAStrings {
		if want := uastring.Classify(ua); cls != want {
			t.Errorf("memo class of %q = %+v, Classify %+v", ua, cls, want)
		}
	}
	if c.Total != total || c.BrowserReqs != browser || c.MobileBrowser != mobile || c.EmbeddedBrowser != embedded {
		t.Errorf("counts %d/%d/%d/%d, per-record Classify %d/%d/%d/%d",
			c.Total, c.BrowserReqs, c.MobileBrowser, c.EmbeddedBrowser, total, browser, mobile, embedded)
	}
	for d, n := range devices {
		if got := c.Devices.Count(d); got != n {
			t.Errorf("device %s: %d requests, per-record Classify %d", d, got, n)
		}
	}
	mix := c.UAStringMix()
	if len(mix) != len(mixCounts) {
		t.Errorf("UAStringMix %v, want shares of %v", mix, mixCounts)
	}
	for d, n := range mixCounts {
		if want := float64(n) / float64(len(distinct)); mix[d] != want {
			t.Errorf("UAStringMix[%s] = %v, want %v", d, mix[d], want)
		}
	}
}
