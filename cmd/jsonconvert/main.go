// Command jsonconvert transcodes CDN log files between the supported
// encodings (TSV and JSON Lines, optionally gzipped, and the chunk
// container), with optional filtering. The input is read through the
// tolerant ingest path every tool shares: the chunk container is
// detected by magic bytes, so a mislabeled file still decodes, and
// malformed records are quarantined and counted, failing the run once
// more than 5% of them are corrupt. The output encoding follows the -o
// extension (.cdnc selects the chunk container with its default codec,
// raw: dictionary-encoded, uncompressed chunks).
//
// Usage:
//
//	jsonconvert -i logs.tsv.gz -o logs.cdnc   # pack into raw chunks
//	jsonconvert -i logs.cdnc -o - -json-only
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/ingest"
	"repro/internal/logfmt"
)

func main() {
	var (
		in       = flag.String("i", "", "input log file (.tsv/.jsonl[.gz] or .cdnc)")
		out      = flag.String("o", "-", "output path (.tsv/.jsonl[.gz] or .cdnc) or - for TSV on stdout")
		jsonOnly = flag.Bool("json-only", false, "keep only application/json records")
		host     = flag.String("host", "", "keep only records for this domain")
		quiet    = flag.Bool("q", false, "suppress the summary line")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "jsonconvert: need -i FILE")
		os.Exit(2)
	}

	var w logfmt.RecordWriter
	if *out == "-" {
		w = logfmt.NewWriter(os.Stdout, logfmt.FormatTSV)
	} else {
		fw, err := logfmt.CreateFile(*out, logfmt.ChunkConfig{})
		if err != nil {
			fail(err)
		}
		w = fw
	}

	var filter logfmt.Filter = func(*logfmt.Record) bool { return true }
	if *jsonOnly {
		filter = logfmt.And(filter, logfmt.JSONOnly)
	}
	if *host != "" {
		filter = logfmt.And(filter, logfmt.HostIs(*host))
	}

	start := time.Now()
	var kept int64
	src := &ingest.FileSource{Path: *in}
	err := src.Each(func(r *logfmt.Record) error {
		if !filter(r) {
			return nil
		}
		kept++
		return w.Write(r)
	})
	if err != nil {
		fail(err)
	}
	if err := w.Close(); err != nil {
		fail(err)
	}
	st := src.LastStats
	if st.Quarantined > 0 {
		fmt.Fprintf(os.Stderr, "jsonconvert: %d of %d records quarantined (%.2f%%)\n",
			st.Quarantined, st.Records+st.Quarantined, st.ErrorRate()*100)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "jsonconvert: %d/%d records in %s\n",
			kept, st.Records, time.Since(start).Round(time.Millisecond))
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "jsonconvert: %v\n", err)
	os.Exit(1)
}
