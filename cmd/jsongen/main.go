// Command jsongen generates synthetic CDN edge request logs modeled on
// the paper's datasets (Table 2).
//
// Usage:
//
//	jsongen -preset short -scale 0.002 -o logs.tsv.gz
//	jsongen -preset long -seed 7 -o logs.jsonl
//	jsongen -duration 2h -target 150000 -domains 40 -o pattern.tsv
//	jsongen -preset short -o logs.cdnc -codec gzip -chunk-records 8192
//
// The output format is inferred from the file extension (.tsv or .jsonl,
// optionally .gz, or the .cdnc chunk container); "-" writes TSV to
// stdout. The -codec and -chunk-records flags shape the chunk container
// only.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/logfmt"
	"repro/internal/synth"
)

func main() {
	var (
		preset   = flag.String("preset", "short", `dataset preset: "short" (10 min, wide) or "long" (24 h, narrow)`)
		scale    = flag.Float64("scale", 0.002, "scale factor relative to the paper's dataset sizes")
		seed     = flag.Uint64("seed", 42, "generator seed; equal seeds give identical datasets")
		out      = flag.String("o", "-", "output path (.tsv/.jsonl[.gz] or .cdnc) or - for stdout")
		duration = flag.Duration("duration", 0, "override capture window")
		target   = flag.Int("target", 0, "override target record count")
		domains  = flag.Int("domains", 0, "override domain count")
		utcOff   = flag.Duration("utc-offset", 0, "vantage time-zone offset shifting the diurnal cycle (e.g. -8h, 9h)")
		quiet    = flag.Bool("q", false, "suppress the summary line")

		codec     = flag.String("codec", "flate", "chunk container codec for .cdnc output: raw, flate, or gzip")
		chunkRecs = flag.Int("chunk-records", 0, "records per chunk for .cdnc output (0 = default 4096)")

		atkBust     = flag.Float64("attack-bust", 0, "cache-busting storm share of -target overlaid on the benign stream")
		atkFlash    = flag.Float64("attack-flash", 0, "flash-crowd share of -target overlaid on the benign stream")
		atkBots     = flag.Float64("attack-bots", 0, "spoofed-UA bot-flood share of -target overlaid on the benign stream")
		atkAmplify  = flag.Float64("attack-amplify", 0, "conversion-amplification share of -target overlaid on the benign stream")
		atkStart    = flag.Duration("attack-start", 0, "attack window offset from capture start (benign baseline first)")
		atkDuration = flag.Duration("attack-duration", 0, "attack window length (0 runs to capture end)")
		atkObjects  = flag.Int("attack-flash-objects", 0, "hot objects the flash crowd converges on (0 = default)")
	)
	flag.Parse()

	var cfg synth.Config
	switch *preset {
	case "short":
		cfg = synth.ShortTermConfig(*seed, *scale)
	case "long":
		cfg = synth.LongTermConfig(*seed, *scale)
	default:
		fatalf("unknown preset %q (want short or long)", *preset)
	}
	if *duration > 0 {
		cfg.Duration = *duration
	}
	if *target > 0 {
		cfg.TargetRequests = *target
	}
	if *domains > 0 {
		cfg.Domains = *domains
	}
	cfg.UTCOffset = *utcOff
	cfg.Attack = synth.AttackConfig{
		CacheBustShare: *atkBust,
		FlashShare:     *atkFlash,
		BotShare:       *atkBots,
		AmplifyShare:   *atkAmplify,
		FlashObjects:   *atkObjects,
		Start:          *atkStart,
		Duration:       *atkDuration,
	}
	if err := cfg.Validate(); err != nil {
		fatalf("%v", err)
	}

	chunkCodec, err := logfmt.ParseCodec(*codec)
	if err != nil {
		fatalf("%v", err)
	}
	var w logfmt.RecordWriter
	if *out == "-" {
		w = logfmt.NewWriter(os.Stdout, logfmt.FormatTSV)
	} else if w, err = logfmt.CreateFile(*out, logfmt.ChunkConfig{Codec: chunkCodec, ChunkRecords: *chunkRecs}); err != nil {
		fatalf("%v", err)
	}

	summary := logfmt.NewDatasetSummary(*preset)
	start := time.Now()
	err = synth.Generate(cfg, func(r *logfmt.Record) error {
		summary.Observe(r)
		return w.Write(r)
	})
	if err != nil {
		fatalf("generate: %v", err)
	}
	if err := w.Close(); err != nil {
		fatalf("close: %v", err)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "%s (wrote in %s)\n", summary, time.Since(start).Round(time.Millisecond))
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "jsongen: "+format+"\n", args...)
	os.Exit(1)
}
