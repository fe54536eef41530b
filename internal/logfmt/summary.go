package logfmt

import (
	"fmt"
	"strings"
	"time"
)

// DatasetSummary aggregates the per-dataset statistics the paper reports
// in Table 2: record count, capture duration, and distinct domain count.
// Populate it by streaming records through Observe, then read the fields.
type DatasetSummary struct {
	// Name labels the dataset ("Short-term", "Long-term", ...).
	Name string

	records  int64
	jsonRecs int64
	first    time.Time
	last     time.Time
	domains  map[string]struct{}
	clients  map[uint64]struct{}
}

// NewDatasetSummary returns an empty summary with the given label.
func NewDatasetSummary(name string) *DatasetSummary {
	return &DatasetSummary{
		Name:    name,
		domains: make(map[string]struct{}),
		clients: make(map[uint64]struct{}),
	}
}

// Observe folds one record into the summary.
func (d *DatasetSummary) Observe(r *Record) {
	d.records++
	if r.IsJSON() {
		d.jsonRecs++
	}
	t := r.Time
	if d.first.IsZero() || t.Before(d.first) {
		d.first = t
	}
	if t.After(d.last) {
		d.last = t
	}
	d.domains[r.Host()] = struct{}{}
	d.clients[r.ClientID] = struct{}{}
}

// Records returns the number of observed log records.
func (d *DatasetSummary) Records() int64 { return d.records }

// JSONRecords returns the number of records with application/json
// responses.
func (d *DatasetSummary) JSONRecords() int64 { return d.jsonRecs }

// Duration returns the time span between the first and last record.
func (d *DatasetSummary) Duration() time.Duration {
	if d.first.IsZero() {
		return 0
	}
	return d.last.Sub(d.first)
}

// Domains returns the number of distinct domains observed.
func (d *DatasetSummary) Domains() int { return len(d.domains) }

// Clients returns the number of distinct client IDs observed.
func (d *DatasetSummary) Clients() int { return len(d.clients) }

// String renders the summary as a Table 2 row.
func (d *DatasetSummary) String() string {
	return fmt.Sprintf("%s: %s logs, %s, %s domains, %d clients",
		d.Name, humanCount(d.records), humanDuration(d.Duration()),
		humanCount(int64(d.Domains())), d.Clients())
}

// humanCount renders n with the paper's "25 million" / "~5K" style.
func humanCount(n int64) string {
	switch {
	case n >= 1_000_000:
		return trimZero(fmt.Sprintf("%.1f", float64(n)/1e6)) + " million"
	case n >= 1_000:
		return "~" + trimZero(fmt.Sprintf("%.1f", float64(n)/1e3)) + "K"
	default:
		return fmt.Sprintf("%d", n)
	}
}

func trimZero(s string) string {
	return strings.TrimSuffix(s, ".0")
}

func humanDuration(d time.Duration) string {
	switch {
	case d >= time.Hour:
		return trimZero(fmt.Sprintf("%.1f", d.Hours())) + " hrs"
	case d >= time.Minute:
		return trimZero(fmt.Sprintf("%.1f", d.Minutes())) + " mins"
	default:
		return d.Round(time.Second).String()
	}
}

// Filter selects a subset of records. Filters compose with And.
type Filter func(*Record) bool

// JSONOnly keeps application/json responses, the filter the paper applies
// before every analysis.
func JSONOnly(r *Record) bool { return r.IsJSON() }

// HostIs returns a filter keeping records for one domain.
func HostIs(host string) Filter {
	host = strings.ToLower(host)
	return func(r *Record) bool { return r.Host() == host }
}

// And returns a filter that passes only records all of fs pass.
func And(fs ...Filter) Filter {
	return func(r *Record) bool {
		for _, f := range fs {
			if !f(r) {
				return false
			}
		}
		return true
	}
}
