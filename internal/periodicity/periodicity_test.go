package periodicity

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/flows"
	"repro/internal/logfmt"
)

var t0 = time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC)

// buildFlow constructs an object flow directly.
func buildFlow(url string, clients []*flows.ClientFlow) *flows.ObjectFlow {
	return &flows.ObjectFlow{URL: url, Clients: clients}
}

// periodicClient emits n requests every period with jitter of up to j.
func periodicClient(id uint64, n int, period, j time.Duration, upload, cached bool) *flows.ClientFlow {
	cf := &flows.ClientFlow{Client: flows.ClientKey{ClientID: id}}
	at := t0
	for i := 0; i < n; i++ {
		jit := time.Duration(int64(id*31+uint64(i)*17) % int64(2*j+1))
		cf.Requests = append(cf.Requests, flows.Request{
			Time: at.Add(jit - j), Upload: upload, Cached: cached,
		})
		at = at.Add(period)
	}
	return cf
}

// randomClient emits n requests at irregular, non-periodic gaps.
func randomClient(id uint64, n int) *flows.ClientFlow {
	cf := &flows.ClientFlow{Client: flows.ClientKey{ClientID: id}}
	at := t0
	for i := 0; i < n; i++ {
		// Deterministic but aperiodic gaps (low-discrepancy-ish).
		gap := time.Duration(7+(int64(id)*37+int64(i*i)*13)%90) * time.Second
		at = at.Add(gap)
		cf.Requests = append(cf.Requests, flows.Request{Time: at})
	}
	return cf
}

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Detector.Permutations = 25
	return cfg
}

func TestAnalyzeDetectsPeriodicObject(t *testing.T) {
	var clients []*flows.ClientFlow
	for i := uint64(0); i < 12; i++ {
		clients = append(clients, periodicClient(i, 30, 30*time.Second, time.Second, true, false))
	}
	of := buildFlow("https://x.com/ingest/ch0", clients)
	res := Analyze([]*flows.ObjectFlow{of}, int64(of.NumRequests()), fastConfig())
	if len(res.Objects) != 1 {
		t.Fatal("missing object result")
	}
	o := res.Objects[0]
	if o.ObjectPeriod < 27*time.Second || o.ObjectPeriod > 33*time.Second {
		t.Fatalf("object period = %v, want ~30s", o.ObjectPeriod)
	}
	if o.PeriodicClients < 10 {
		t.Errorf("periodic clients = %d/12", o.PeriodicClients)
	}
	if res.PeriodicShare() < 0.8 {
		t.Errorf("periodic share = %v, want near 1", res.PeriodicShare())
	}
	if res.PeriodicUploadShare() != 1 {
		t.Errorf("upload share = %v", res.PeriodicUploadShare())
	}
	if res.PeriodicUncacheableShare() != 1 {
		t.Errorf("uncacheable share = %v", res.PeriodicUncacheableShare())
	}
}

func TestAnalyzeRejectsRandomObject(t *testing.T) {
	var clients []*flows.ClientFlow
	for i := uint64(0); i < 12; i++ {
		clients = append(clients, randomClient(i, 25))
	}
	of := buildFlow("https://x.com/v1/feed", clients)
	res := Analyze([]*flows.ObjectFlow{of}, int64(of.NumRequests()), fastConfig())
	if res.Objects[0].PeriodicClients != 0 && res.Objects[0].ObjectPeriod > 0 {
		// Aggregate may accidentally clear the threshold, but clients
		// must not all be periodic.
		if res.Objects[0].PeriodicClientShare() > 0.3 {
			t.Errorf("random flow got %d periodic clients", res.Objects[0].PeriodicClients)
		}
	}
}

func TestAnalyzeMixedFleet(t *testing.T) {
	var clients []*flows.ClientFlow
	for i := uint64(0); i < 8; i++ {
		clients = append(clients, periodicClient(i, 40, time.Minute, time.Second, false, true))
	}
	for i := uint64(100); i < 108; i++ {
		clients = append(clients, randomClient(i, 30))
	}
	of := buildFlow("https://x.com/poll/score", clients)
	res := Analyze([]*flows.ObjectFlow{of}, int64(of.NumRequests()), fastConfig())
	o := res.Objects[0]
	if o.ObjectPeriod == 0 {
		t.Fatal("object period not detected despite 8 synchronized pollers")
	}
	share := o.PeriodicClientShare()
	if share < 0.3 || share > 0.75 {
		t.Errorf("periodic client share = %v, want ~0.5", share)
	}
}

func TestResultAggregates(t *testing.T) {
	mk := func(url string, nPeriodic int) *flows.ObjectFlow {
		var clients []*flows.ClientFlow
		for i := 0; i < nPeriodic; i++ {
			clients = append(clients, periodicClient(uint64(i), 25, 30*time.Second, time.Second, false, true))
		}
		return buildFlow(url, clients)
	}
	objs := []*flows.ObjectFlow{mk("https://x.com/a", 10), mk("https://x.com/b", 12)}
	total := int64(objs[0].NumRequests() + objs[1].NumRequests() + 1000)
	res := Analyze(objs, total, fastConfig())
	if res.TotalRequests != total {
		t.Errorf("total = %d", res.TotalRequests)
	}
	if res.PeriodicShare() <= 0 || res.PeriodicShare() >= 1 {
		t.Errorf("periodic share = %v", res.PeriodicShare())
	}
	hist := res.PeriodHistogram(DefaultPeriodEdges())
	// Both periods ~30s land in the first bin (<=45s).
	if hist.Count(0) != 2 {
		t.Errorf("30s bin count = %d", hist.Count(0))
	}
	cdf := res.PeriodicClientCDF()
	if cdf.N() != 2 {
		t.Errorf("CDF sample = %d", cdf.N())
	}
	if res.ShareAboveMajority() != 1 {
		t.Errorf("majority share = %v", res.ShareAboveMajority())
	}
}

func TestEmptyResult(t *testing.T) {
	res := Analyze(nil, 0, fastConfig())
	if res.PeriodicShare() != 0 || res.ShareAboveMajority() != 0 ||
		res.PeriodicUploadShare() != 0 || res.PeriodicUncacheableShare() != 0 {
		t.Error("empty result should report zeros")
	}
}

func TestPeriodsMatch(t *testing.T) {
	cases := []struct {
		a, b time.Duration
		want bool
	}{
		{30 * time.Second, 30 * time.Second, true},
		{30 * time.Second, 33 * time.Second, true},  // 10% off
		{30 * time.Second, 40 * time.Second, false}, // 33% off
		{0, 30 * time.Second, false},
		{30 * time.Second, 0, false},
	}
	for _, c := range cases {
		if got := periodsMatch(c.a, c.b, 0.15); got != c.want {
			t.Errorf("periodsMatch(%v,%v) = %v", c.a, c.b, got)
		}
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	var clients []*flows.ClientFlow
	for i := uint64(0); i < 10; i++ {
		clients = append(clients, periodicClient(i, 25, time.Minute, 2*time.Second, false, false))
	}
	of := buildFlow("https://x.com/poll/p", clients)
	a := Analyze([]*flows.ObjectFlow{of}, 1000, fastConfig())
	b := Analyze([]*flows.ObjectFlow{of}, 1000, fastConfig())
	if a.PeriodicRequests != b.PeriodicRequests || a.Objects[0].ObjectPeriod != b.Objects[0].ObjectPeriod {
		t.Error("analysis not deterministic")
	}
}

// TestEndToEndFromRecords exercises extraction + analysis from raw logs.
func TestEndToEndFromRecords(t *testing.T) {
	ex := flows.NewExtractor()
	ex.Filter = logfmt.JSONOnly
	url := "https://api.track0.example.com/ingest/ch1"
	for c := uint64(0); c < 12; c++ {
		for i := 0; i < 20; i++ {
			at := t0.Add(time.Duration(i)*time.Minute + time.Duration(c*137%900)*time.Millisecond)
			r := logfmt.Record{
				Time: at, ClientID: c, Method: "POST", URL: url,
				UserAgent: "HomeCam/1.9 (IoT; ESP32)", MIMEType: "application/json",
				Status: 200, Bytes: 120, Cache: logfmt.CacheUncacheable,
			}
			ex.Observe(&r)
		}
	}
	res := Analyze(ex.Flows(), ex.TotalObserved(), fastConfig())
	if len(res.Objects) != 1 {
		t.Fatalf("objects = %d", len(res.Objects))
	}
	o := res.Objects[0]
	if o.ObjectPeriod < 55*time.Second || o.ObjectPeriod > 65*time.Second {
		t.Errorf("period = %v, want ~1m", o.ObjectPeriod)
	}
	if o.PeriodicClients < 10 {
		t.Errorf("periodic clients = %d", o.PeriodicClients)
	}
}

func TestDefaultPeriodEdgesAscending(t *testing.T) {
	edges := DefaultPeriodEdges()
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			t.Fatalf("edges not ascending at %d", i)
		}
	}
}

func TestObjectsSortedByURL(t *testing.T) {
	mk := func(url string) *flows.ObjectFlow {
		return buildFlow(url, []*flows.ClientFlow{periodicClient(1, 20, 30*time.Second, time.Second, false, false)})
	}
	objs := []*flows.ObjectFlow{mk("https://z.com/a"), mk("https://a.com/z")}
	res := Analyze(objs, 100, fastConfig())
	if res.Objects[0].URL > res.Objects[1].URL {
		t.Error("objects not sorted")
	}
	_ = fmt.Sprintf("%v", res.Objects)
}

// TestAnalyzeIndependentOfWorkersAndScratch: each worker keeps one
// detector — FFT tables and scratch — across the flows it analyses, and
// none of that may leak into a result. The objects' flows differ in
// length, so a single worker's scratch is resized up and down as it
// goes; the results must not depend on how many workers there are, on
// whether the call is the first, or on what a worker analysed before.
func TestAnalyzeIndependentOfWorkersAndScratch(t *testing.T) {
	shapes := []struct {
		n      int
		period time.Duration
	}{{120, time.Minute}, {20, 15 * time.Second}, {60, 30 * time.Second}, {200, 10 * time.Second}, {40, 45 * time.Second}}
	var objs []*flows.ObjectFlow
	var total int64
	for i, sh := range shapes {
		var clients []*flows.ClientFlow
		for c := 0; c < 5; c++ {
			id := uint64(10*i + c)
			clients = append(clients, periodicClient(id, sh.n-3*c, sh.period, time.Second, c%2 == 0, false))
		}
		clients = append(clients, randomClient(uint64(10*i+9), 25+5*i))
		of := buildFlow(fmt.Sprintf("https://x.com/o%d", i), clients)
		objs = append(objs, of)
		total += int64(of.NumRequests())
	}
	cfg := fastConfig()

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one := Analyze(objs, total, cfg)
	if len(one.PeriodicObjects()) == 0 {
		t.Fatal("no periodic object: the comparison would be vacuous")
	}
	if again := Analyze(objs, total, cfg); !reflect.DeepEqual(one, again) {
		t.Error("second call differs from the first")
	}
	runtime.GOMAXPROCS(4)
	if four := Analyze(objs, total, cfg); !reflect.DeepEqual(one, four) {
		t.Error("GOMAXPROCS=4 differs from GOMAXPROCS=1")
	}
	// one.Objects is sorted by URL, which is the order objs was built in.
	for i, of := range objs {
		alone := Analyze([]*flows.ObjectFlow{of}, total, cfg)
		if !reflect.DeepEqual(alone.Objects[0], one.Objects[i]) {
			t.Errorf("%s: on a fresh worker %+v, after other flows %+v", of.URL, alone.Objects[0], one.Objects[i])
		}
	}
}
