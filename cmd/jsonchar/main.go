// Command jsonchar is the §5.2 application of request prediction to one
// edge log: its one command, anomaly, trains the clustered ngram model
// on one log and lists the requests it finds least likely in another.
//
// The characterization of a log file — Table 2 and Fig. 2–4 (§4), Fig.
// 5/6, Table 3 and prefetch (§5) — comes from jsonrepro -records FILE
// (-only table2,fig3,fig4 for §4 alone, streamed in one pass); a fresh
// synthetic dataset comes from jsongen.
//
// Usage:
//
//	jsonchar anomaly -i pattern.tsv.gz -scan live.tsv -threshold 1e-4 -top 20
//	jsonchar anomaly -i logs.cdnc -max-error-rate 0.1 -dead-letter bad.jsonl -j 4
//
// Both logs go through the tolerant ingest path and its flags (-i, -j,
// -max-error-rate, -dead-letter): malformed records are quarantined
// (optionally to a -dead-letter JSONL file) and the run survives as long
// as the corrupt fraction stays under -max-error-rate.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/ingest"
	"repro/internal/logfmt"
	"repro/internal/obs"
)

func main() {
	if len(os.Args) < 2 || os.Args[1] != "anomaly" {
		fmt.Fprintln(os.Stderr, "jsonchar: the §4 characterization of a log file runs as jsonrepro -records FILE -only table2,fig3,fig4")
		fmt.Fprintln(os.Stderr, "usage: jsonchar anomaly -i FILE [-scan FILE] [-top N] [-threshold T] [-j N] [-max-error-rate R] [-dead-letter FILE]")
		os.Exit(2)
	}
	fs := flag.NewFlagSet("jsonchar anomaly", flag.ExitOnError)
	in := addInput(fs)
	in.log = obs.NewLogger(os.Stderr, obs.NewRunID(), 0, nil).Component(fs.Name())
	if err := runAnomaly(fs, in, os.Args[2:]); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", fs.Name(), err)
		os.Exit(1)
	}
}

// input is the log file a run reads and the flags that govern how, read
// through the one tolerant ingest path.
type input struct {
	fs               *flag.FlagSet
	path, deadLetter *string
	jobs             *int
	maxErrRate       *float64
	log              *obs.Logger // receives the quarantine summary
}

// addInput registers the input flags on fs.
func addInput(fs *flag.FlagSet) *input {
	return &input{
		fs:         fs,
		path:       fs.String("i", "", "input log file (.tsv/.jsonl[.gz] or .cdnc)"),
		jobs:       fs.Int("j", runtime.GOMAXPROCS(0), "decode workers for file ingest"),
		maxErrRate: fs.Float64("max-error-rate", 0.05, "abort file ingest when more than this fraction of records is corrupt"),
		deadLetter: fs.String("dead-letter", "", "append quarantined record spans to this JSONL file"),
	}
}

// parse parses args into the input's flag set and checks the input
// flags.
func (in *input) parse(args []string) {
	in.fs.Parse(args)
	if in.fs.NArg() > 0 {
		usage(in.fs, fmt.Sprintf("unexpected argument %q (the §5 analyses run as jsonrepro -records FILE)", in.fs.Arg(0)))
	}
	if *in.path == "" {
		usage(in.fs, "need -i FILE")
	}
	if *in.jobs < 1 {
		usage(in.fs, "-j must be >= 1")
	}
}

// read streams the log file at path into fn. Malformed records are
// quarantined, to the -dead-letter file when one is set, and summarized
// on the input's logger; the read fails once they exceed
// -max-error-rate. It returns the read's accounting even on error.
func (in *input) read(ctx context.Context, path string, fn func(*logfmt.Record)) (ingest.Stats, error) {
	opts := ingest.Options{MaxErrorRate: *in.maxErrRate}
	var dl *os.File
	if *in.deadLetter != "" {
		var err error
		if dl, err = os.OpenFile(*in.deadLetter, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			return ingest.Stats{}, err
		}
		opts.DeadLetter = ingest.NewDeadLetter(dl)
	}
	src := &ingest.FileSource{Path: path, Ctx: ctx,
		Config: ingest.PipelineConfig{Workers: *in.jobs, Options: opts}}
	err := src.Each(func(r *logfmt.Record) error {
		fn(r)
		return nil
	})
	if dl != nil {
		err = errors.Join(err, opts.DeadLetter.Flush(), dl.Close())
	}
	if st := src.LastStats; st.Quarantined > 0 {
		in.log.Warn("records quarantined", "path", path,
			"quarantined", st.Quarantined,
			"total", st.Records+st.Quarantined,
			"error_rate", fmt.Sprintf("%.2f%%", st.ErrorRate()*100),
			"resyncs", st.Resyncs, "bytes_skipped", st.BytesSkipped)
	}
	return src.LastStats, err
}

// usage reports a command-line mistake as the flag package reports a
// bad flag: the message, the flags, and exit status 2.
func usage(fs *flag.FlagSet, msg string) {
	fmt.Fprintf(fs.Output(), "%s: %s\n", fs.Name(), msg)
	fs.Usage()
	os.Exit(2)
}
