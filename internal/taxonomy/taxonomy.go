// Package taxonomy classifies CDN log records along the paper's JSON
// traffic taxonomy (Fig. 2) and aggregates the §4 characterization:
// traffic source (device type, browser vs non-browser),
// request type (upload vs download), and response type (size,
// cacheability), including the per-category cacheability heatmap of
// Fig. 4.
package taxonomy

import (
	"sort"

	"repro/internal/domaincat"
	"repro/internal/logfmt"
	"repro/internal/stats"
	"repro/internal/uastring"
)

// Characterization aggregates the §4 statistics over a log stream.
// Feed JSON records (the caller applies the content-type filter) with
// Observe; non-JSON records may be fed to ObserveOther so the size
// comparison against HTML is possible. Characterization is not safe for
// concurrent use; use Merge to combine shard results.
type Characterization struct {
	// Devices counts JSON requests by device type label.
	Devices stats.Counter
	// Methods counts JSON requests by HTTP method.
	Methods stats.Counter
	// UAStrings holds each distinct non-empty user-agent string with
	// its class. Observe probes it before classifying, so each distinct
	// agent is classified once.
	UAStrings map[string]uastring.Class

	// Browser counts.
	Total           int64
	BrowserReqs     int64
	MobileBrowser   int64
	EmbeddedBrowser int64

	// Cacheability.
	Uncacheable int64

	// Sizes.
	JSONSizes []float64
	HTMLSizes []float64
}

// NewCharacterization returns an empty aggregate.
func NewCharacterization() *Characterization {
	return &Characterization{UAStrings: make(map[string]uastring.Class)}
}

// Observe folds one JSON record into the aggregate.
func (c *Characterization) Observe(r *logfmt.Record) {
	cls, seen := c.UAStrings[r.UserAgent]
	if !seen {
		cls = uastring.Classify(r.UserAgent)
		if r.UserAgent != "" {
			c.UAStrings[r.UserAgent] = cls
		}
	}
	c.Total++
	c.Devices.Add(cls.Device.String())
	c.Methods.Add(r.Method)
	if cls.Browser {
		c.BrowserReqs++
		switch cls.Device {
		case uastring.DeviceMobile:
			c.MobileBrowser++
		case uastring.DeviceEmbedded:
			c.EmbeddedBrowser++
		}
	}
	if r.Cache == logfmt.CacheUncacheable {
		c.Uncacheable++
	}
	if r.Bytes > 0 {
		c.JSONSizes = append(c.JSONSizes, float64(r.Bytes))
	}
}

// ObserveOther folds one non-JSON record (only HTML sizes are retained,
// for the §4 size comparison).
func (c *Characterization) ObserveOther(r *logfmt.Record) {
	if r.MIMEType == "text/html" && r.Bytes > 0 {
		c.HTMLSizes = append(c.HTMLSizes, float64(r.Bytes))
	}
}

// ObserveAny routes a record by content type: JSON to Observe,
// everything else to ObserveOther.
func (c *Characterization) ObserveAny(r *logfmt.Record) {
	if r.IsJSON() {
		c.Observe(r)
	} else {
		c.ObserveOther(r)
	}
}

// Merge folds other into c.
func (c *Characterization) Merge(other *Characterization) {
	c.Devices.Merge(&other.Devices)
	c.Methods.Merge(&other.Methods)
	for ua, cls := range other.UAStrings {
		if _, ok := c.UAStrings[ua]; !ok {
			c.UAStrings[ua] = cls
		}
	}
	c.Total += other.Total
	c.BrowserReqs += other.BrowserReqs
	c.MobileBrowser += other.MobileBrowser
	c.EmbeddedBrowser += other.EmbeddedBrowser
	c.Uncacheable += other.Uncacheable
	c.JSONSizes = append(c.JSONSizes, other.JSONSizes...)
	c.HTMLSizes = append(c.HTMLSizes, other.HTMLSizes...)
}

// DeviceShare returns the fraction of JSON requests from the device type.
func (c *Characterization) DeviceShare(d uastring.DeviceType) float64 {
	return c.Devices.Share(d.String())
}

// NonBrowserShare returns the fraction of JSON requests not from
// browsers (paper: 88%).
func (c *Characterization) NonBrowserShare() float64 {
	if c.Total == 0 {
		return 0
	}
	return 1 - float64(c.BrowserReqs)/float64(c.Total)
}

// MobileBrowserShare returns mobile-browser requests as a fraction of
// all JSON requests (paper: 2.5%).
func (c *Characterization) MobileBrowserShare() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.MobileBrowser) / float64(c.Total)
}

// GETShare returns the fraction of JSON requests using GET (paper: 84%).
func (c *Characterization) GETShare() float64 { return c.Methods.Share("GET") }

// POSTShareOfRest returns POST's share of non-GET requests (paper: 96%).
func (c *Characterization) POSTShareOfRest() float64 {
	rest := c.Methods.Total() - c.Methods.Count("GET")
	if rest == 0 {
		return 0
	}
	return float64(c.Methods.Count("POST")) / float64(rest)
}

// UncacheableShare returns the fraction of JSON requests that were not
// cacheable (paper: ~55%).
func (c *Characterization) UncacheableShare() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.Uncacheable) / float64(c.Total)
}

// UAStringMix returns the share of *distinct* user-agent strings per
// device type label (paper: 73% mobile, 17% embedded, 3% desktop, 7%
// unknown).
func (c *Characterization) UAStringMix() map[string]float64 {
	if len(c.UAStrings) == 0 {
		return nil
	}
	counts := map[string]int{}
	for _, cls := range c.UAStrings {
		counts[cls.Device.String()]++
	}
	out := make(map[string]float64, len(counts))
	for k, v := range counts {
		out[k] = float64(v) / float64(len(c.UAStrings))
	}
	return out
}

// SizeQuantiles returns the p50 and p75 of JSON and HTML response sizes
// (paper: JSON 24% and 87% smaller at the median and 75th percentile).
func (c *Characterization) SizeQuantiles() (json50, json75, html50, html75 float64) {
	j := append([]float64(nil), c.JSONSizes...)
	h := append([]float64(nil), c.HTMLSizes...)
	jq := stats.Quantiles(j, 0.5, 0.75)
	hq := stats.Quantiles(h, 0.5, 0.75)
	if jq != nil {
		json50, json75 = jq[0], jq[1]
	}
	if hq != nil {
		html50, html75 = hq[0], hq[1]
	}
	return
}

// DomainCacheability accumulates per-domain cacheable/uncacheable
// request counts and joins them with industry categories to produce the
// Fig. 4 heatmap.
type DomainCacheability struct {
	catalog *domaincat.Catalog
	domains map[string]*domainCache
}

type domainCache struct {
	cacheable   int64
	uncacheable int64
}

// NewDomainCacheability returns an aggregator using catalog for the
// domain-to-category join.
func NewDomainCacheability(catalog *domaincat.Catalog) *DomainCacheability {
	return &DomainCacheability{catalog: catalog, domains: make(map[string]*domainCache)}
}

// Observe folds one JSON record.
func (d *DomainCacheability) Observe(r *logfmt.Record) {
	host := r.Host()
	dc := d.domains[host]
	if dc == nil {
		dc = &domainCache{}
		d.domains[host] = dc
	}
	if r.Cache.Cacheable() {
		dc.cacheable++
	} else {
		dc.uncacheable++
	}
}

// PolicyShares returns the fraction of domains that never serve
// cacheable JSON, always do, and mix (paper: ~50%, ~30%, rest).
func (d *DomainCacheability) PolicyShares() (never, always, mixed float64) {
	if len(d.domains) == 0 {
		return 0, 0, 0
	}
	var n, a, m int
	for _, dc := range d.domains {
		switch {
		case dc.cacheable == 0:
			n++
		case dc.uncacheable == 0:
			a++
		default:
			m++
		}
	}
	tot := float64(len(d.domains))
	return float64(n) / tot, float64(a) / tot, float64(m) / tot
}

// Heatmap builds the Fig. 4 matrix: rows are industry categories, columns
// are cacheability-share buckets (0-10%, ..., 90-100%), and cells are
// the fraction of the category's domains in the bucket.
func (d *DomainCacheability) Heatmap(buckets int) *stats.Matrix {
	if buckets <= 0 {
		buckets = 10
	}
	cats := domaincat.Categories()
	rowIdx := make(map[domaincat.Category]int, len(cats))
	rows := make([]string, len(cats))
	for i, c := range cats {
		rowIdx[c] = i
		rows[i] = c.String()
	}
	cols := make([]string, buckets)
	for i := range cols {
		cols[i] = percentRange(i, buckets)
	}
	m := stats.NewMatrix(rows, cols)
	for _, host := range d.sortedHosts() {
		dc := d.domains[host]
		total := dc.cacheable + dc.uncacheable
		if total == 0 {
			continue
		}
		share := float64(dc.cacheable) / float64(total)
		b := int(share * float64(buckets))
		if b >= buckets {
			b = buckets - 1
		}
		cat := d.catalog.Lookup(host)
		if ri, ok := rowIdx[cat]; ok {
			m.Inc(ri, b, 1)
		}
	}
	m.NormalizeRows()
	return m
}

// CategoryMeans maps each category label to the mean, over the
// category's domains, of the share of a domain's JSON that is cacheable.
func (d *DomainCacheability) CategoryMeans() map[string]float64 {
	sums := map[string]*stats.Summary{}
	for _, host := range d.sortedHosts() {
		dc := d.domains[host]
		cat := d.catalog.Lookup(host).String()
		s := sums[cat]
		if s == nil {
			s = &stats.Summary{}
			sums[cat] = s
		}
		s.Add(float64(dc.cacheable) / float64(dc.cacheable+dc.uncacheable))
	}
	means := make(map[string]float64, len(sums))
	for cat, s := range sums {
		means[cat] = s.Mean()
	}
	return means
}

// sortedHosts returns the observed domains in sorted order: float
// accumulation is order-sensitive in the last bits, and map iteration
// would make the sums differ from run to run.
func (d *DomainCacheability) sortedHosts() []string {
	hosts := make([]string, 0, len(d.domains))
	for h := range d.domains {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	return hosts
}

func percentRange(i, buckets int) string {
	lo := i * 100 / buckets
	hi := (i + 1) * 100 / buckets
	return itoa(lo) + "-" + itoa(hi) + "%"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
