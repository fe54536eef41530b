package ingest

import (
	"bufio"
	"context"
	"io"
	"os"
	"runtime"

	"repro/internal/logfmt"
	"repro/internal/obs"
)

// PipelineConfig sizes the decode pipeline behind Run and RunChunks.
type PipelineConfig struct {
	// Workers is the decode fan-out (default GOMAXPROCS). With one
	// worker the whole read runs on the caller's goroutine.
	Workers int
	// Options governs quarantine and the error budget.
	Options Options
}

func (c *PipelineConfig) sanitize() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// textResult is one decoded line batch: the good records in stream
// order, and the bad lines with where they fell among them.
type textResult struct {
	recs []logfmt.Record
	bad  []badLine
}

// badLine is a quarantined line that followed at good records of its
// batch.
type badLine struct {
	at int
	de *logfmt.DecodeError
}

// Run streams text-format records from r through the ordered stage to
// fn: the producer splits lines into batches, the workers parse them in
// parallel, and the caller's goroutine reapplies stream order,
// quarantines bad lines, enforces the error budget, and invokes fn. The
// *logfmt.Record handed to fn is reused; observers copy what they
// retain, per the core.Source contract. It returns the accounting even
// on error. Cancelling ctx stops the run with ctx's error; fn's first
// error also stops it.
func Run(ctx context.Context, r io.Reader, format logfmt.Format, cfg PipelineConfig, fn func(*logfmt.Record) error) (Stats, error) {
	cfg.sanitize()
	if ctx == nil {
		ctx = context.Background()
	}
	led := newLedger(cfg.Options)
	sc, err := logfmt.NewLineScanner(r)
	if err != nil {
		return led.stats, err
	}
	m := cfg.Options.Metrics

	// Pipeline stages report as child spans of the caller's span (see
	// obs.ContextWithSpan); untraced callers get nil no-op spans. The
	// three stages overlap in time — that overlap is the pipeline's
	// parallelism, and a trace export renders it as adjacent lanes.
	parent := obs.SpanFromContext(ctx)
	readSp := parent.Child("ingest read+split")
	decodeSp := parent.Child("ingest decode")
	deliverSp := parent.Child("ingest deliver")
	defer func() {
		decodeSp.End()
		deliverSp.AddRecords(led.stats.Records)
		deliverSp.End()
	}()

	lineFree := newFreeList[logfmt.Line](cfg.Workers)
	recFree := newFreeList[logfmt.Record](cfg.Workers)

	produce := func(emit func([]logfmt.Line) bool) error {
		defer func() {
			readSp.AddBytes(sc.Offset())
			readSp.AddRecords(sc.Records())
			readSp.End()
		}()
		for {
			batch := lineFree.get(batchSize)[:batchSize]
			n := 0
			var err error
			for ; n < batchSize; n++ {
				if err = sc.Next(&batch[n]); err != nil {
					break
				}
			}
			if n > 0 && !emit(batch[:n]) {
				return nil
			}
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
		}
	}
	work := func(lines []logfmt.Line) textResult {
		t0 := m.decodeStart()
		res := textResult{recs: recFree.get(batchSize)}
		for i := range lines {
			res.recs = append(res.recs, logfmt.Record{})
			if err := lines[i].Decode(format, &res.recs[len(res.recs)-1]); err != nil {
				res.recs = res.recs[:len(res.recs)-1]
				res.bad = append(res.bad, badLine{len(res.recs), logfmt.AsDecodeError(err)})
			}
		}
		m.decodeDone(t0)
		decodeSp.AddRecords(int64(len(lines)))
		lineFree.put(lines)
		return res
	}
	deliver := func(res textResult) error {
		defer recFree.put(res.recs)
		from := 0
		for _, b := range res.bad {
			if err := led.deliver(res.recs[from:b.at], fn); err != nil {
				return err
			}
			from = b.at
			if err := led.bad(b.de, 1, 0, false); err != nil {
				return err
			}
		}
		return led.deliver(res.recs[from:], fn)
	}
	err = ordered(ctx, cfg.Workers, m, produce,
		func() func([]logfmt.Line) textResult { return work }, deliver)
	return led.stats, err
}

// FileSource streams a log file tolerantly, implementing core.Source.
// It is the one way every tool opens a log. The chunk container is
// detected by its magic bytes regardless of extension and decodes
// through RunChunks; anything else is a text format, named by the
// extension (.jsonl or TSV, optionally gzipped), and decodes through
// Run. A log in the retired binary stream format is refused with
// logfmt.ErrBinaryStream rather than parsed as text. After Each
// returns, LastStats holds the run's accounting.
type FileSource struct {
	// Path is the log file (.tsv/.jsonl[.gz] or .cdnc).
	Path string
	// Ctx cancels the run between records; nil means Background.
	Ctx context.Context
	// Config sizes the pipeline and its tolerance options.
	Config PipelineConfig
	// LastStats is the accounting of the most recent Each.
	LastStats Stats
}

// Each implements core.Source.
func (f *FileSource) Each(fn func(*logfmt.Record) error) error {
	ctx := f.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	fh, err := os.Open(f.Path)
	if err != nil {
		return err
	}
	defer fh.Close()
	br := bufio.NewReaderSize(fh, 1<<16)
	magic, _ := br.Peek(5)
	if err := logfmt.CheckRetired(f.Path, magic); err != nil {
		return err
	}
	if logfmt.IsChunkMagic(magic) {
		f.LastStats, err = RunChunks(ctx, br, f.Config, fn)
	} else {
		f.LastStats, err = Run(ctx, br, logfmt.FormatForPath(f.Path), f.Config, fn)
	}
	return err
}
