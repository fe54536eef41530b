package cdnjson_test

import (
	"fmt"
	"log"
	"time"

	cdnjson "repro"
	"repro/internal/flows"
	"repro/internal/logfmt"
)

func ExampleClusterURL() {
	// Volatile components (IDs, coordinates, session tokens) template
	// away; static structure is preserved.
	fmt.Println(cdnjson.ClusterURL("https://news.example.com/article/1234"))
	fmt.Println(cdnjson.ClusterURL("https://api.example.com/geo/40.7128/-74.0060"))
	fmt.Println(cdnjson.ClusterURL("https://api.example.com/v1/stories?user=99&lat=40.7"))
	// Output:
	// https://news.example.com/article/{num}
	// https://api.example.com/geo/{num}/{num}
	// https://api.example.com/v1/stories?lat={v}&user={v}
}

func ExampleClassifyUserAgent() {
	for _, ua := range []string{
		"NewsApp/3.1 (iPhone; iOS 12.2)",
		"Mozilla/5.0 (PlayStation 4 6.51) AppleWebKit/605.1.15 (KHTML, like Gecko)",
		"curl/7.64.0",
	} {
		cls := cdnjson.ClassifyUserAgent(ua)
		fmt.Printf("%s browser=%v app=%s\n", cls.Device, cls.Browser, cls.App)
	}
	// Output:
	// Mobile browser=false app=NewsApp
	// Embedded browser=false app=PlayStation
	// Unknown browser=false app=curl
}

func ExampleNewPredictionModel() {
	m := cdnjson.NewPredictionModel(1)
	// Ten clients walking the same manifest -> article chain.
	for i := 0; i < 10; i++ {
		m.Train([]string{
			"https://x.com/stories",
			"https://x.com/article/1",
			"https://x.com/article/2",
		})
	}
	next := m.PredictTopK([]string{"https://x.com/stories"}, 1)
	fmt.Println(next[0])
	// Output:
	// https://x.com/article/1
}

// Generate a small synthetic CDN log dataset and run the paper's §4
// characterization over it.
func Example_quickstart() {
	// A scaled-down version of the paper's short-term dataset
	// (Table 2): 10 minutes of CDN-wide traffic.
	cfg := cdnjson.ShortTermConfig(42, 0.001)
	fmt.Printf("generating ~%d records over %s across %d domains...\n",
		cfg.TargetRequests, cfg.Duration, cfg.Domains)

	char := cdnjson.NewCharacterization()
	var total int
	err := cdnjson.Generate(cfg, func(r *cdnjson.Record) error {
		total++
		char.ObserveAny(r)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("generated %d records, %d of them application/json\n\n", total, char.Total)
	fmt.Println("device shares of JSON traffic (paper Fig. 3: mobile>=55%, embedded 12%, unknown 24%):")
	for _, d := range []cdnjson.DeviceType{
		cdnjson.DeviceMobile, cdnjson.DeviceUnknown, cdnjson.DeviceEmbedded, cdnjson.DeviceDesktop,
	} {
		fmt.Printf("  %-9s %5.1f%%\n", d, char.DeviceShare(d)*100)
	}
	fmt.Printf("\nnon-browser traffic: %.1f%% (paper: 88%%)\n", char.NonBrowserShare()*100)
	fmt.Printf("GET share: %.1f%% (paper: 84%%)\n", char.GETShare()*100)
	fmt.Printf("uncacheable JSON: %.1f%% (paper: ~55%%)\n", char.UncacheableShare()*100)

	j50, j75, h50, h75 := char.SizeQuantiles()
	fmt.Printf("JSON sizes p50/p75: %.0f/%.0f B vs HTML %.0f/%.0f B\n", j50, j75, h50, h75)
	// Output:
	// generating ~25000 records over 10m0s across 158 domains...
	// generated 22350 records, 16054 of them application/json
	//
	// device shares of JSON traffic (paper Fig. 3: mobile>=55%, embedded 12%, unknown 24%):
	//   Mobile     54.4%
	//   Unknown    25.9%
	//   Embedded   11.2%
	//   Desktop     8.5%
	//
	// non-browser traffic: 89.4% (paper: 88%)
	// GET share: 84.7% (paper: 84%)
	// uncacheable JSON: 47.8% (paper: ~55%)
	// JSON sizes p50/p75: 788/2552 B vs HTML 1302/18657 B
}

// Find machine-to-machine JSON flows (§5.1): generate a pattern dataset
// with embedded pollers, run the permutation-thresholded period
// detector, list the detected machine-to-machine objects, and then watch
// one of them for off-period arrivals.
func Example_periodicity() {
	cfg := cdnjson.LongTermConfig(7, 1)
	cfg.Duration = time.Hour
	cfg.TargetRequests = 50_000
	cfg.Domains = 25
	fmt.Printf("generating %s of traffic (~%d records)...\n", cfg.Duration, cfg.TargetRequests)

	ex := cdnjson.NewFlowExtractor()
	ex.Filter = func(r *cdnjson.Record) bool { return r.IsJSON() }
	err := cdnjson.Generate(cfg, func(r *cdnjson.Record) error {
		ex.Observe(r)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	pcfg := cdnjson.DefaultPeriodicityConfig()
	pcfg.Detector.Permutations = 50
	pcfg.SampleBin = 2 * time.Second
	fl := ex.Flows()
	fmt.Printf("analyzing %d object flows (>=10 clients each)...\n\n", len(fl))
	res := cdnjson.AnalyzePeriodicity(fl, ex.TotalObserved(), pcfg)

	fmt.Printf("periodic share of JSON requests: %.1f%% (paper: 6.3%%)\n", res.PeriodicShare()*100)
	fmt.Printf("periodic traffic: %.1f%% upload, %.1f%% uncacheable\n\n",
		res.PeriodicUploadShare()*100, res.PeriodicUncacheableShare()*100)

	objs := res.PeriodicObjects()
	fmt.Printf("machine-to-machine objects (%d):\n", len(objs))
	for _, o := range objs {
		fmt.Printf("  %-58s period=%-6s clients=%d/%d periodic\n",
			trim(o.URL, 58), o.ObjectPeriod, o.PeriodicClients, o.TotalClients)
	}

	// Anomaly detection: watch one periodic object; a burst (requests
	// far off the established period) alarms.
	target := objs[0]
	fmt.Printf("\nwatching %s (period %s) for off-period requests:\n", target.URL, target.ObjectPeriod)
	det := cdnjson.PeriodAnomalyDetector{Expected: target.ObjectPeriod, Tolerance: 0.25}
	client := flows.ClientKey{ClientID: 12345}
	now := time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC)
	arrivals := []time.Duration{
		0,
		target.ObjectPeriod,
		2 * target.ObjectPeriod,
		2*target.ObjectPeriod + 3*time.Second, // burst!
		3 * target.ObjectPeriod,
	}
	for i, offset := range arrivals {
		v := det.Observe(client, now.Add(offset))
		status := "ok"
		if v.Anomalous {
			status = "ANOMALY (off-period burst)"
		}
		fmt.Printf("  arrival %d at +%-8s deviation=%.2f  %s\n", i, offset, v.Deviation, status)
	}
	// Output:
	// generating 1h0m0s of traffic (~50000 records)...
	// analyzing 17 object flows (>=10 clients each)...
	//
	// periodic share of JSON requests: 9.8% (paper: 6.3%)
	// periodic traffic: 91.1% upload, 36.1% uncacheable
	//
	// machine-to-machine objects (7):
	//   https://api.bank1.example.com/ingest/ch1                   period=1m0s   clients=10/23 periodic
	//   https://api.chat0.example.com/ingest/ch4                   period=5m0s   clients=10/16 periodic
	//   https://api.cloudapi0.example.com/ingest/ch0               period=30s    clients=17/27 periodic
	//   https://api.game1.example.com/ingest/ch3                   period=3m0s   clients=10/19 periodic
	//   https://api.news0.example.com/v1/offer/1002                period=7m16s  clients=0/13 periodic
	//   https://api.news1.example.com/poll/ch2                     period=2m0s   clients=10/23 periodic
	//   https://api.showtv2.example.com/ingest/ch5                 period=5m0s   clients=10/17 periodic
	//
	// watching https://api.bank1.example.com/ingest/ch1 (period 1m0s) for off-period requests:
	//   arrival 0 at +0s       deviation=0.00  ok
	//   arrival 1 at +1m0s     deviation=0.00  ok
	//   arrival 2 at +2m0s     deviation=0.00  ok
	//   arrival 3 at +2m3s     deviation=0.95  ANOMALY (off-period burst)
	//   arrival 4 at +3m0s     deviation=0.05  ok
}

// Train the §5.2 backoff ngram model on synthetic traffic, evaluate
// Table 3-style top-K accuracy, predict a client's next requests live,
// and flag an anomalous request.
func Example_prediction() {
	cfg := cdnjson.LongTermConfig(9, 1)
	cfg.Duration = time.Hour
	cfg.TargetRequests = 60_000
	cfg.Domains = 25
	fmt.Printf("generating ~%d records...\n", cfg.TargetRequests)

	seq := cdnjson.NewSequencer()
	seq.Filter = func(r *cdnjson.Record) bool { return r.IsJSON() }
	var sample []string // one client's request trail for the live demo
	var sampleClient uint64
	err := cdnjson.Generate(cfg, func(r *cdnjson.Record) error {
		seq.Observe(r)
		if sampleClient == 0 && r.Method == "GET" && r.IsJSON() {
			sampleClient = r.ClientID
		}
		if r.ClientID == sampleClient && r.IsJSON() && len(sample) < 6 {
			sample = append(sample, r.URL)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("training on %d clients (25%% held out)...\n\n", seq.NumClients())
	model, evals := seq.TrainAndEvaluate(1, []int{1, 5, 10})
	fmt.Println("top-K accuracy on held-out clients (paper Table 3, actual URLs: .45/.64/.69):")
	for _, k := range []int{1, 5, 10} {
		fmt.Printf("  K=%-3d %.2f  (%d predictions)\n", k, evals[k].Accuracy(), evals[k].Predictions)
	}

	fmt.Println("\nlive prediction for one client:")
	for i := 1; i < len(sample); i++ {
		preds := model.PredictTopK(sample[i-1:i], 3)
		hit := " "
		for _, p := range preds {
			if p == sample[i] {
				hit = "*"
			}
		}
		short := make([]string, len(preds))
		for j, p := range preds {
			short[j] = trim(p, 40)
		}
		fmt.Printf("  after %-55s -> predict %v %s\n", trim(sample[i-1], 55), short, hit)
	}

	fmt.Println("\nanomaly scoring (low-score requests are suspicious):")
	det := cdnjson.NewRequestAnomalyDetector(model)
	trail := append([]string{}, sample...)
	trail = append(trail, "https://evil.example.com/exfiltrate")
	now := time.Date(2019, 5, 1, 12, 0, 0, 0, time.UTC)
	for i, u := range trail {
		r := cdnjson.Record{
			Time: now.Add(time.Duration(i) * time.Second), ClientID: 777,
			Method: "GET", URL: u, UserAgent: "NewsApp/3.1 (iPhone)",
			MIMEType: "application/json", Status: 200, Bytes: 100,
			Cache: cdnjson.CacheHit,
		}
		v := det.Observe(&r)
		status := ""
		if v.Anomalous {
			status = "  <-- ANOMALY"
		}
		fmt.Printf("  %-60s score=%.4f%s\n", trim(u, 60), v.Score, status)
	}
	// Output:
	// generating ~60000 records...
	// training on 368 clients (25% held out)...
	//
	// top-K accuracy on held-out clients (paper Table 3, actual URLs: .45/.64/.69):
	//   K=1   0.45  (10756 predictions)
	//   K=5   0.64  (10756 predictions)
	//   K=10  0.70  (10756 predictions)
	//
	// live prediction for one client:
	//   after https://api.bank2.example.com/v1/feed/0                 -> predict [https://api.bank2.example.com/v1/offe... https://api.bank2.example.com/v1/offe... https://api.bank2.example.com/v1/offe...] *
	//   after https://api.bank2.example.com/v1/offer/1018             -> predict [https://api.bank2.example.com/v1/card... https://api.bank2.example.com/v1/card... https://api.bank2.example.com/v1/offe...] *
	//   after https://api.bank2.example.com/v1/card/1016              -> predict [https://api.bank2.example.com/v1/arti... https://api.bank2.example.com/v1/feed/0 https://api.bank2.example.com/v1/offe...] *
	//   after https://api.bank2.example.com/v1/article/1017           -> predict [https://api.bank2.example.com/v1/offe... https://api.bank2.example.com/v1/arti... https://api.bank2.example.com/v1/offe...] *
	//   after https://api.bank2.example.com/v1/article/1053           -> predict [https://api.bank2.example.com/v1/offe... https://api.bank2.example.com/v1/card... https://api.news1.example.com/ingest/ch0] *
	//
	// anomaly scoring (low-score requests are suspicious):
	//   https://api.bank2.example.com/v1/feed/0                      score=0.0009
	//   https://api.bank2.example.com/v1/offer/1018                  score=0.0690
	//   https://api.bank2.example.com/v1/card/1016                   score=0.0833
	//   https://api.bank2.example.com/v1/article/1017                score=0.7000
	//   https://api.bank2.example.com/v1/article/1053                score=0.1000
	//   https://api.bank2.example.com/v1/card/1031                   score=0.1667
	//   https://evil.example.com/exfiltrate                          score=0.0000  <-- ANOMALY
}

// Quantify the paper's §5.2 implication that prefetching the
// ngram-predicted next JSON objects improves the edge cache hit ratio:
// replay one synthetic stream through identical simulated edges with and
// without prefetching, sweeping the prefetch fan-out K.
func Example_prefetchsim() {
	cfg := cdnjson.LongTermConfig(11, 1)
	cfg.Duration = time.Hour
	cfg.TargetRequests = 60_000
	cfg.Domains = 25
	fmt.Printf("generating ~%d records...\n", cfg.TargetRequests)
	recs, err := cdnjson.GenerateRecords(cfg)
	if err != nil {
		log.Fatal(err)
	}

	seq := cdnjson.NewSequencer()
	seq.Filter = func(r *cdnjson.Record) bool { return r.IsJSON() }
	for i := range recs {
		seq.Observe(&recs[i])
	}
	model, _ := seq.TrainAndEvaluate(1, nil)
	fmt.Printf("trained ngram model over %d clients\n\n", seq.NumClients())

	replayJSON := func(fn func(*cdnjson.Record)) {
		for i := range recs {
			if recs[i].IsJSON() {
				fn(&recs[i])
			}
		}
	}

	fmt.Printf("%-16s %-10s %-8s %s\n", "configuration", "hit ratio", "waste", "prefetch bytes")
	for i, k := range []int{1, 2, 5} {
		pcfg := cdnjson.PrefetchConfig{K: k}
		cmp := cdnjson.ComparePrefetch(model, pcfg, replayJSON)
		if i == 0 {
			fmt.Printf("%-16s %-10.3f %-8s %s\n", "baseline", cmp.Baseline.HitRatio(), "-", "-")
		}
		fmt.Printf("%-16s %-10.3f %-8.2f %d\n",
			fmt.Sprintf("prefetch K=%d", k),
			cmp.Prefetch.HitRatio(), cmp.Prefetch.WasteRatio(), cmp.Prefetch.PrefetchedBytes)
	}
	fmt.Println("\nhigher K converts more misses but wastes more origin traffic —")
	fmt.Println("the trade-off a CDN operator would tune (paper §5.2).")
	// Output:
	// generating ~60000 records...
	// trained ngram model over 359 clients
	//
	// configuration    hit ratio  waste    prefetch bytes
	// baseline         0.480      -        -
	// prefetch K=1     0.714      0.41     50383808
	// prefetch K=2     0.757      0.38     60319908
	// prefetch K=5     0.816      0.48     85554717
	//
	// higher K converts more misses but wastes more origin traffic —
	// the trade-off a CDN operator would tune (paper §5.2).
}

// Evaluate the paper's §7 proposal: serve human-triggered requests ahead
// of machine-to-machine traffic at a busy edge. The machine set comes
// from the §5.1 periodicity analysis, so detection chains into policy.
func Example_deprioritize() {
	cfg := cdnjson.LongTermConfig(13, 1)
	cfg.Duration = time.Hour
	cfg.TargetRequests = 50_000
	cfg.Domains = 25
	fmt.Printf("generating ~%d records...\n", cfg.TargetRequests)
	recs, err := cdnjson.GenerateRecords(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Step 1: find the machine-to-machine objects via periodicity.
	ex := cdnjson.NewFlowExtractor()
	ex.Filter = func(r *cdnjson.Record) bool { return r.IsJSON() }
	for i := range recs {
		ex.Observe(&recs[i])
	}
	pcfg := cdnjson.DefaultPeriodicityConfig()
	pcfg.Detector.Permutations = 40
	pcfg.SampleBin = 2 * time.Second
	res := cdnjson.AnalyzePeriodicity(ex.Flows(), ex.TotalObserved(), pcfg)
	machine := map[string]bool{}
	for _, o := range res.PeriodicObjects() {
		machine[o.URL] = true
	}
	fmt.Printf("periodicity analysis labeled %d objects machine-to-machine\n\n", len(machine))

	// Step 2: build the scheduler workload. Service cost ~ fixed CPU +
	// bytes, scaled so two workers run at ~85% utilization.
	var reqs []cdnjson.SchedRequest
	var total time.Duration
	var first, last time.Time
	for i := range recs {
		r := &recs[i]
		if !r.IsJSON() {
			continue
		}
		svc := 2*time.Millisecond + time.Duration(r.Bytes)*200*time.Nanosecond
		class := cdnjson.ClassHuman
		if machine[logfmt.CanonicalURL(r.URL)] {
			class = cdnjson.ClassMachine
		}
		reqs = append(reqs, cdnjson.SchedRequest{Arrival: r.Time, Service: svc, Class: class})
		total += svc
		if first.IsZero() || r.Time.Before(first) {
			first = r.Time
		}
		if r.Time.After(last) {
			last = r.Time
		}
	}
	const workers = 2
	factor := 0.85 * last.Sub(first).Seconds() * workers / total.Seconds()
	for i := range reqs {
		reqs[i].Service = time.Duration(float64(reqs[i].Service) * factor)
	}

	// Step 3: compare FIFO against human-priority.
	fifo, prio, err := cdnjson.CompareScheduling(reqs, workers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-10s %-8s %-12s %-12s %s\n", "discipline", "class", "mean wait", "p95", "p99")
	show := func(d, c string, mean, p95, p99 float64) {
		fmt.Printf("%-10s %-8s %-12s %-12s %s\n", d, c, secs(mean), secs(p95), secs(p99))
	}
	show("fifo", "human", fifo.Human.Wait.Mean(), fifo.Human.P95, fifo.Human.P99)
	show("fifo", "machine", fifo.Machine.Wait.Mean(), fifo.Machine.P95, fifo.Machine.P99)
	show("priority", "human", prio.Human.Wait.Mean(), prio.Human.P95, prio.Human.P99)
	show("priority", "machine", prio.Machine.Wait.Mean(), prio.Machine.P95, prio.Machine.P99)
	fmt.Printf("\nhuman p95 wait reduced %.0f%% by deprioritizing machine traffic\n",
		(1-prio.Human.P95/fifo.Human.P95)*100)
	fmt.Println("(no human is staring at a screen waiting for the machine traffic — §5.1)")
	// Output:
	// generating ~50000 records...
	// periodicity analysis labeled 6 objects machine-to-machine
	//
	// discipline class    mean wait    p95          p99
	// fifo       human    950ms        4.947s       8.516s
	// fifo       machine  890ms        4.776s       8.409s
	// priority   human    537ms        3.091s       6.006s
	// priority   machine  5.191s       30.833s      58.175s
	//
	// human p95 wait reduced 38% by deprioritizing machine traffic
	// (no human is staring at a screen waiting for the machine traffic — §5.1)
}

// trim shortens s to at most n bytes, marking the cut with "...".
func trim(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}

// secs renders a wait in seconds as a duration to the millisecond.
func secs(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Millisecond).String()
}
