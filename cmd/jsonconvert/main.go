// Command jsonconvert transcodes CDN log files between the supported
// encodings (TSV, JSON Lines, binary, and the compressed chunk
// container; the text and binary formats optionally gzipped), with
// optional filtering. Container inputs are detected by magic bytes, so
// a mislabeled file still decodes; the output encoding follows the -o
// extension (.cdnc selects the chunk container with its default codec,
// raw: dictionary-encoded, uncompressed chunks).
//
// Usage:
//
//	jsonconvert -i logs.tsv.gz -o logs.cdnb.gz
//	jsonconvert -i logs.tsv.gz -o logs.cdnc   # repack into raw chunks
//	jsonconvert -i logs.cdnc -o - -json-only
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/logfmt"
)

func main() {
	var (
		in       = flag.String("i", "", "input log file (.tsv/.jsonl/.cdnb[.gz] or .cdnc)")
		out      = flag.String("o", "-", "output path or - for TSV on stdout")
		jsonOnly = flag.Bool("json-only", false, "keep only application/json records")
		host     = flag.String("host", "", "keep only records for this domain")
		quiet    = flag.Bool("q", false, "suppress the summary line")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "jsonconvert: need -i FILE")
		os.Exit(2)
	}

	rd, rcloser, err := logfmt.OpenFile(*in)
	if err != nil {
		fail(err)
	}
	defer rcloser.Close()

	var w logfmt.RecordWriter
	var finish func() error
	if *out == "-" {
		sw := logfmt.NewWriter(os.Stdout, logfmt.FormatTSV)
		w, finish = sw, sw.Close
	} else {
		fw, wcloser, err := logfmt.CreateFile(*out)
		if err != nil {
			fail(err)
		}
		w = fw
		finish = func() error {
			if err := fw.Close(); err != nil {
				wcloser.Close()
				return err
			}
			return wcloser.Close()
		}
	}

	var filter logfmt.Filter = func(*logfmt.Record) bool { return true }
	if *jsonOnly {
		filter = logfmt.And(filter, logfmt.JSONOnly)
	}
	if *host != "" {
		filter = logfmt.And(filter, logfmt.HostIs(*host))
	}

	start := time.Now()
	var kept, seen int64
	err = rd.ForEach(func(r *logfmt.Record) error {
		seen++
		if !filter(r) {
			return nil
		}
		kept++
		return w.Write(r)
	})
	if err != nil {
		fail(err)
	}
	if err := finish(); err != nil {
		fail(err)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "jsonconvert: %d/%d records in %s\n",
			kept, seen, time.Since(start).Round(time.Millisecond))
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "jsonconvert: %v\n", err)
	os.Exit(1)
}
