package logfmt

import (
	"strings"
	"testing"
	"time"
)

func TestDatasetSummary(t *testing.T) {
	d := NewDatasetSummary("Short-term")
	base := time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		r := sampleRecord()
		r.Time = base.Add(time.Duration(i) * time.Minute)
		r.ClientID = uint64(i % 3)
		if i%2 == 0 {
			r.URL = "https://other.example.com/x"
			r.MIMEType = "text/html"
		}
		d.Observe(&r)
	}
	if d.Records() != 10 {
		t.Errorf("Records = %d", d.Records())
	}
	if d.JSONRecords() != 5 {
		t.Errorf("JSONRecords = %d", d.JSONRecords())
	}
	if d.Duration() != 9*time.Minute {
		t.Errorf("Duration = %v", d.Duration())
	}
	if d.Domains() != 2 {
		t.Errorf("Domains = %d", d.Domains())
	}
	if d.Clients() != 3 {
		t.Errorf("Clients = %d", d.Clients())
	}
	if s := d.String(); !strings.Contains(s, "Short-term") {
		t.Errorf("String = %q", s)
	}
}

func TestDatasetSummaryEmpty(t *testing.T) {
	d := NewDatasetSummary("empty")
	if d.Duration() != 0 || d.Records() != 0 || d.Domains() != 0 {
		t.Error("empty summary should report zeros")
	}
}

func TestHumanCount(t *testing.T) {
	cases := map[int64]string{
		25_000_000: "25 million",
		10_000_000: "10 million",
		5_000:      "~5K",
		4_900:      "~4.9K",
		170:        "170",
		1_500_000:  "1.5 million",
	}
	for n, want := range cases {
		if got := humanCount(n); got != want {
			t.Errorf("humanCount(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestHumanDuration(t *testing.T) {
	cases := map[time.Duration]string{
		24 * time.Hour:   "24 hrs",
		10 * time.Minute: "10 mins",
		30 * time.Second: "30s",
		90 * time.Minute: "1.5 hrs",
	}
	for d, want := range cases {
		if got := humanDuration(d); got != want {
			t.Errorf("humanDuration(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestFilters(t *testing.T) {
	r := sampleRecord()
	if !JSONOnly(&r) {
		t.Error("JSONOnly rejected JSON record")
	}
	if !HostIs("api.news-example.com")(&r) || HostIs("nope.com")(&r) {
		t.Error("HostIs wrong")
	}
}

func TestFilterCombinators(t *testing.T) {
	r := sampleRecord()
	yes := Filter(func(*Record) bool { return true })
	no := Filter(func(*Record) bool { return false })
	if !And(yes, yes)(&r) || And(yes, no)(&r) {
		t.Error("And wrong")
	}
	if !And()(&r) {
		t.Error("empty And should pass")
	}
}
