package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/anomaly"
	"repro/internal/logfmt"
	"repro/internal/ngram"
)

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
