// Command jsonreplay drives a recorded log file against a live HTTP
// endpoint as an open-loop load generator: requests follow the
// recorded timeline (compressed by -speed) or a fixed -rate, latency
// is measured from each request's intended start time (coordinated-
// omission-safe), and the run can be gated on an SLO expression and
// summarized into a machine-readable replay report. The log is read
// through the tolerant ingest path: malformed records are skipped and
// counted, and loading fails once more than 5% of them are corrupt.
//
// Usage:
//
//	jsonreplay -i pattern.tsv.gz -target http://127.0.0.1:8080 -speed 60
//	jsonreplay -i logs.cdnc -target http://edge:8080 -rate 2000 -duration 30s \
//	    -warmup 5s -slo "p99<50ms,err<1%" -out replay-run.json
//	jsonreplay -i stream.tsv -target-file /tmp/edge.url -rate 500 -duration 10s
//
// Exit status: 0 on success, 1 on a fatal or early-stop error, 2 on
// usage errors, 3 when the run finished but violated the -slo gate.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"repro/internal/edge"
	"repro/internal/ingest"
	"repro/internal/logfmt"
	"repro/internal/obs"
	"repro/internal/replay"
)

func main() {
	var (
		in          = flag.String("i", "", "input log file (.tsv/.jsonl[.gz] or .cdnc)")
		target      = flag.String("target", "", "base URL to replay against")
		targetFile  = flag.String("target-file", "", "URL file written by a serving liveedge (-url-file); waits for it, reads the target, and probes readiness")
		speed       = flag.Float64("speed", 60, "timing compression factor for the recorded timeline")
		rate        = flag.Float64("rate", 0, "fixed open-loop arrival rate in req/s (overrides the recorded timeline; loops records under -duration)")
		duration    = flag.Duration("duration", 0, "stop scheduling after this long (0 = one pass over the records)")
		warmup      = flag.Duration("warmup", 0, "exclude requests scheduled in this initial window from the statistics")
		concurrency = flag.Int("c", 16, "max in-flight requests")
		jsonOnly    = flag.Bool("json-only", false, "replay only application/json records")
		maxReqs     = flag.Int("max", 0, "stop after this many records (0 = all)")
		sloExpr     = flag.String("slo", "", `SLO gate, e.g. "p99<50ms,err<1%,rps>500"; exit 3 on violation`)
		out         = flag.String("out", "", "write a replay report (repro/replay-report/v1) to this file, e.g. replay-$ID.json, or - for stdout")
		progress    = flag.Duration("progress", time.Second, "progress line period (0 disables)")
	)
	flag.Parse()
	if *in == "" || (*target == "" && *targetFile == "") {
		fmt.Fprintln(os.Stderr, "jsonreplay: need -i FILE and -target URL (or -target-file FILE)")
		os.Exit(2)
	}
	slo, err := replay.ParseSLO(*sloExpr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jsonreplay: %v\n", err)
		os.Exit(2)
	}

	runID := obs.NewRunID()
	logger := obs.NewLogger(os.Stderr, runID, 0, nil).Component("jsonreplay")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *targetFile != "" {
		urls, err := edge.AwaitURLFile(ctx, *targetFile, 30*time.Second)
		if err != nil {
			fail("waiting for %s: %v", *targetFile, err)
		}
		*target = urls[0]
		probe := urls[0]
		if len(urls) > 1 {
			probe = urls[1] + "/readyz" // admin readiness endpoint
		}
		if err := edge.AwaitReady(ctx, probe, 30*time.Second); err != nil {
			fail("readiness probe %s: %v", probe, err)
		}
		logger.Info("target ready", "target", *target, "probe", probe)
	}

	var records []logfmt.Record
	intern := logfmt.NewInterner(0) // one copy of each URL and agent across chunks
	src := &ingest.FileSource{Path: *in, Ctx: ctx}
	err = src.Each(func(r *logfmt.Record) error {
		if *jsonOnly && !r.IsJSON() {
			return nil
		}
		if *maxReqs > 0 && len(records) >= *maxReqs {
			return nil
		}
		records = append(records, *r)
		kept := &records[len(records)-1]
		kept.URL = intern.Intern(kept.URL)
		kept.UserAgent = intern.Intern(kept.UserAgent)
		return nil
	})
	if err != nil {
		fail("%v", err)
	}
	if *rate > 0 {
		logger.Info("replaying open-loop", "records", len(records),
			"quarantined", src.LastStats.Quarantined, "rate", *rate,
			"duration", *duration, "warmup", *warmup, "target", *target)
	} else {
		logger.Info("replaying recorded timeline", "records", len(records),
			"quarantined", src.LastStats.Quarantined, "speed", *speed,
			"warmup", *warmup, "target", *target)
	}

	cfg := replay.Config{
		Target:        *target,
		Speed:         *speed,
		Rate:          *rate,
		Concurrency:   *concurrency,
		Duration:      *duration,
		Warmup:        *warmup,
		Logger:        logger,
		ProgressEvery: *progress,
	}
	if *progress <= 0 {
		cfg.Logger = nil
	}
	res, runErr := replay.Run(ctx, records, cfg)

	printSummary(res)
	rep := replay.BuildReport(runID, *in, len(records), cfg, res, slo)
	if *out != "" {
		if err := rep.Write(*out); err != nil {
			fail("%v", err)
		}
		if *out != "-" {
			logger.Info("replay report written", "path", *out)
		}
	}

	// A run that stopped early — transport collapse or cancellation —
	// must not masquerade as a clean measurement.
	if runErr != nil {
		logger.Error("stopped early", "err", runErr, "sent", res.Sent, "dropped", res.Dropped)
		os.Exit(1)
	}
	if rep.SLO != nil && !rep.SLO.Pass {
		for _, v := range rep.SLO.Violations {
			fmt.Fprintf(os.Stderr, "jsonreplay: SLO %s\n", v)
		}
		os.Exit(3)
	}
	if rep.SLO != nil {
		logger.Info("SLO met", "expr", rep.SLO.Expr)
	}
}

func printSummary(res *replay.Result) {
	fmt.Printf("offered %d, sent %d in %s (offered %.0f rps, achieved %.0f rps), %d transport errors",
		res.Offered, res.Sent, res.Wall.Round(time.Millisecond),
		res.OfferedRPS(), res.AchievedRPS(), res.Errors)
	if res.Dropped > 0 {
		fmt.Printf(", %d dropped", res.Dropped)
	}
	fmt.Println()
	statuses := make([]int, 0, len(res.Status))
	for s := range res.Status {
		statuses = append(statuses, s)
	}
	sort.Ints(statuses)
	for _, s := range statuses {
		fmt.Printf("  HTTP %d: %d\n", s, res.Status[s])
	}
	if res.Measured == 0 {
		return
	}
	fmt.Printf("latency over %d measured requests (intended-start / service):\n", res.Measured)
	for _, q := range obs.HDRQuantiles {
		fmt.Printf("  p%-5s %9.1fms %9.1fms\n", trimPct(q),
			float64(res.Latency.Quantile(q))/1e6, float64(res.Service.Quantile(q))/1e6)
	}
	fmt.Printf("  mean  %9.1fms %9.1fms\n", res.Latency.Mean()/1e6, res.Service.Mean()/1e6)
}

// trimPct renders 0.999 as "99.9", 0.5 as "50".
func trimPct(q float64) string {
	s := fmt.Sprintf("%g", q*100)
	return s
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "jsonreplay: "+format+"\n", args...)
	os.Exit(1)
}
