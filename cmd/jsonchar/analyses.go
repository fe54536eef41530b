package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/anomaly"
	"repro/internal/flows"
	"repro/internal/logfmt"
	"repro/internal/ngram"
	"repro/internal/periodicity"
	"repro/internal/prefetch"
	"repro/internal/stats"
)

// runPeriod is the §5.1 periodicity analysis: it extracts object and
// client-object flows, detects significant periods with the
// permutation-thresholded autocorrelation+Fourier detector, and prints
// the Fig. 5 period histogram, the Fig. 6 CDF, and the periodic-traffic
// statistics.
func runPeriod(fs *flag.FlagSet, in *input, args []string) error {
	var (
		x    = fs.Int("x", 100, "permutations for the significance thresholds")
		bin  = fs.Duration("bin", time.Second, "sampling interval")
		seed = fs.Uint64("seed", 1, "permutation seed")
		list = fs.Bool("list", false, "list every periodic object")
	)
	in.parse(args)

	ex := flows.NewExtractor()
	ex.Filter = logfmt.JSONOnly
	if _, err := in.read(context.Background(), *in.path, ex.Observe); err != nil {
		return err
	}
	fl := ex.Flows()
	kept := ex.FilterStats()
	fmt.Printf("JSON requests: %d; objects: %d; flows surviving filters: %d\n",
		ex.TotalObserved(), ex.NumObjects(), len(fl))
	fmt.Printf("filters keep %s of objects carrying %s of requests (paper: the top ~25%% of objects)\n",
		stats.Percent(kept.ObjectShare()), stats.Percent(kept.RequestShare()))

	cfg := periodicity.DefaultConfig()
	cfg.Detector.Permutations = *x
	cfg.SampleBin = *bin
	cfg.Seed = *seed
	res := periodicity.Analyze(fl, ex.TotalObserved(), cfg)

	fmt.Printf("\nperiodic requests: %s of JSON traffic (paper: 6.3%%)\n",
		stats.Percent(res.PeriodicShare()))
	fmt.Printf("periodic traffic: %s uncacheable (paper: 56.2%%), %s upload (paper: 78%%)\n",
		stats.Percent(res.PeriodicUncacheableShare()), stats.Percent(res.PeriodicUploadShare()))
	fmt.Printf("periodic objects with >50%% periodic clients: %s (paper: 20%%)\n",
		stats.Percent(res.ShareAboveMajority()))

	fmt.Println("\nFigure 5: histogram of object periods")
	h := res.PeriodHistogram(periodicity.DefaultPeriodEdges())
	labels := []string{"<=30s", "1m", "2m", "3m", "5m", "10m", "15m", "30m", "1h"}
	values := make([]float64, len(labels))
	for i := 0; i < h.NumBins() && i < len(labels); i++ {
		values[i] = float64(h.Count(i))
	}
	fmt.Print(stats.BarChart(labels, values, 50))

	fmt.Println("\nFigure 6: CDF of percent periodic clients across objects")
	fmt.Print(stats.LineChart(res.PeriodicClientCDF().Points(40), 60, 12))

	if *list {
		fmt.Println("\nPeriodic objects:")
		for _, o := range res.PeriodicObjects() {
			fmt.Printf("  %-60s period=%-8s clients=%d/%d periodic\n",
				o.URL, o.ObjectPeriod, o.PeriodicClients, o.TotalClients)
		}
	}
	return nil
}

// runPredict trains and evaluates the §5.2 backoff ngram
// request-prediction model, reproducing Table 3's accuracy grid on
// actual and clustered URLs.
func runPredict(fs *flag.FlagSet, in *input, args []string) error {
	var (
		order    = fs.Int("n", 1, "history length N")
		ks       = fs.String("k", "1,5,10", "comma-separated K values")
		testFrac = fs.Float64("test-frac", 0.25, "fraction of clients held out for testing")
	)
	in.parse(args)
	kvals := parseKs(fs, *ks)

	// One pass feeds both vocabularies.
	actual := &ngram.Sequencer{TestFraction: *testFrac, Filter: logfmt.JSONOnly}
	clustered := &ngram.Sequencer{TestFraction: *testFrac, Filter: logfmt.JSONOnly, Clustered: true}
	if _, err := in.read(context.Background(), *in.path, func(r *logfmt.Record) {
		actual.Observe(r)
		clustered.Observe(r)
	}); err != nil {
		return err
	}
	modelA, evalA := actual.TrainAndEvaluate(*order, kvals)
	modelC, evalC := clustered.TrainAndEvaluate(*order, kvals)

	fmt.Printf("clients: %d; vocabulary: %d actual URLs, %d clustered templates\n\n",
		actual.NumClients(), modelA.VocabSize(), modelC.VocabSize())
	fmt.Printf("NGram accuracy (N=%d):\n", *order)
	var tb stats.Table
	tb.SetHeader("K", "Clustered URLs", "Actual URLs", "Predictions")
	for _, k := range kvals {
		tb.AddRowf(k,
			fmt.Sprintf("%.2f", evalC[k].Accuracy()),
			fmt.Sprintf("%.2f", evalA[k].Accuracy()),
			evalA[k].Predictions)
	}
	fmt.Print(tb.String())
	fmt.Println("\npaper (N=1): clustered .65/.84/.87, actual .45/.64/.69 for K=1/5/10")
	return nil
}

// runAnomaly trains the clustered ngram model on the -i log and then
// scores the -scan log's requests, listing the most anomalous ones: the
// §5.2 application of request prediction.
func runAnomaly(fs *flag.FlagSet, in *input, args []string) error {
	var (
		scan      = fs.String("scan", "", "log file to scan for anomalies (defaults to -i)")
		top       = fs.Int("top", 20, "how many anomalous requests to list")
		threshold = fs.Float64("threshold", 1e-3, "score below which a request is anomalous")
	)
	in.parse(args)
	if *top < 0 {
		usage(fs, "-top must be >= 0")
	}
	if *scan == "" {
		*scan = *in.path
	}

	// A test fraction this small trains on everything.
	seq := &ngram.Sequencer{TestFraction: 0.0001, Filter: logfmt.JSONOnly, Clustered: true}
	if _, err := in.read(context.Background(), *in.path, seq.Observe); err != nil {
		return err
	}
	model, _ := seq.TrainAndEvaluate(1, nil)
	fmt.Fprintf(os.Stderr, "trained on %d clients, %d cluster templates\n",
		seq.NumClients(), model.VocabSize())

	det := anomaly.NewRequestDetector(model)
	det.Clustered = true
	det.Threshold = *threshold

	type finding struct {
		rec   logfmt.Record
		score float64
	}
	var findings []finding
	var scanned int64
	if _, err := in.read(context.Background(), *scan, func(r *logfmt.Record) {
		if !r.IsJSON() {
			return
		}
		scanned++
		if v := det.Observe(r); v.Anomalous {
			findings = append(findings, finding{rec: *r, score: v.Score})
		}
	}); err != nil {
		return err
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].score < findings[j].score })

	fmt.Printf("scanned %d JSON requests; %d anomalous (threshold %g)\n\n",
		scanned, len(findings), *threshold)
	for _, f := range findings[:min(*top, len(findings))] {
		fmt.Printf("%s  score=%-10.2g client=%x  %s %s\n",
			f.rec.Time.Format("15:04:05"), f.score, f.rec.ClientID, f.rec.Method, f.rec.URL)
	}
	return nil
}

// runPrefetch is the prefetching simulation (§5.2 implication): it
// trains the ngram model on the log's training clients, replays the JSON
// stream through identical simulated edges with and without
// prediction-driven prefetching, and reports the hit-ratio gain and the
// prefetch waste across a K sweep.
func runPrefetch(fs *flag.FlagSet, in *input, args []string) error {
	var (
		ks      = fs.String("k", "1,2,5", "comma-separated prefetch fan-outs")
		servers = fs.Int("servers", 4, "edge servers in the pool")
		cacheMB = fs.Int64("cache-mb", 64, "cache capacity per server (MiB)")
		ttl     = fs.Duration("ttl", time.Minute, "cache TTL")
	)
	in.parse(args)
	kvals := parseKs(fs, *ks)

	var recs []logfmt.Record // the JSON records, the only ones replayed
	seq := ngram.NewSequencer()
	if _, err := in.read(context.Background(), *in.path, func(r *logfmt.Record) {
		if r.IsJSON() {
			recs = append(recs, *r)
			seq.Observe(r)
		}
	}); err != nil {
		return err
	}
	model, _ := seq.TrainAndEvaluate(1, nil)

	replayJSON := func(fn func(*logfmt.Record)) {
		for i := range recs {
			fn(&recs[i])
		}
	}

	cfg := prefetch.DefaultConfig()
	cfg.Servers = *servers
	cfg.CacheBytes = *cacheMB << 20
	cfg.TTL = *ttl

	var tb stats.Table
	tb.SetHeader("Configuration", "Hit ratio", "Waste", "Origin bytes", "Prefetch bytes")
	// The baseline does not depend on K: replay it once, with the first
	// K's prefetching side, and run the prefetching side alone after that.
	for i, k := range kvals {
		kcfg := cfg
		kcfg.K = k
		var res prefetch.Result
		if i == 0 {
			cmp := prefetch.Compare(model, kcfg, replayJSON)
			tb.AddRowf("baseline", fmt.Sprintf("%.3f", cmp.Baseline.HitRatio()), "-",
				cmp.Baseline.OriginBytes, "-")
			res = cmp.Prefetch
		} else {
			res = prefetch.Simulate(model, kcfg, replayJSON)
		}
		tb.AddRowf(fmt.Sprintf("prefetch K=%d", k),
			fmt.Sprintf("%.3f", res.HitRatio()),
			fmt.Sprintf("%.2f", res.WasteRatio()),
			res.OriginBytes, res.PrefetchedBytes)
	}
	fmt.Print(tb.String())
	return nil
}

// parseKs parses fs's -k list of positive integers.
func parseKs(fs *flag.FlagSet, s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || k < 1 {
			usage(fs, fmt.Sprintf("bad -k value %q", part))
		}
		out = append(out, k)
	}
	return out
}
