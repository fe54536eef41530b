// Command jsonprefetch runs the prefetching simulation (§5.2
// implication): it trains the ngram model on a log file's training
// clients, replays the JSON stream through identical simulated edges
// with and without prediction-driven prefetching, and reports the
// hit-ratio gain and the prefetch waste across a K sweep.
//
// Usage:
//
//	jsonprefetch -i pattern.tsv.gz
//	jsonprefetch -i pattern.tsv.gz -k 1,2,5 -cache-mb 128 -ttl 2m
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/logfmt"
	"repro/internal/ngram"
	"repro/internal/prefetch"
	"repro/internal/stats"
)

func main() {
	var (
		in      = flag.String("i", "", "input log file (.tsv/.jsonl[.gz])")
		ks      = flag.String("k", "1,2,5", "comma-separated prefetch fan-outs")
		servers = flag.Int("servers", 4, "edge servers in the pool")
		cacheMB = flag.Int64("cache-mb", 64, "cache capacity per server (MiB)")
		ttl     = flag.Duration("ttl", time.Minute, "cache TTL")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "jsonprefetch: need -i FILE")
		os.Exit(2)
	}

	recs, err := core.Collect(core.FileSource(*in))
	if err != nil {
		fmt.Fprintf(os.Stderr, "jsonprefetch: %v\n", err)
		os.Exit(1)
	}
	seq := ngram.NewSequencer()
	seq.Filter = logfmt.JSONOnly
	for i := range recs {
		seq.Observe(&recs[i])
	}
	model, _ := seq.TrainAndEvaluate(1, nil)

	replayJSON := func(fn func(*logfmt.Record)) {
		for i := range recs {
			if recs[i].IsJSON() {
				fn(&recs[i])
			}
		}
	}

	var tb stats.Table
	tb.SetHeader("Configuration", "Hit ratio", "Waste", "Origin bytes", "Prefetch bytes")
	var kvals []int
	for _, part := range strings.Split(*ks, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || k < 1 {
			fmt.Fprintf(os.Stderr, "jsonprefetch: bad K %q\n", part)
			os.Exit(2)
		}
		kvals = append(kvals, k)
	}

	cfg := prefetch.DefaultConfig()
	cfg.Servers = *servers
	cfg.CacheBytes = *cacheMB << 20
	cfg.TTL = *ttl

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
}
