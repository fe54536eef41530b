package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/domaincat"
	"repro/internal/ingest"
	"repro/internal/logfmt"
	"repro/internal/rollup"
	"repro/internal/synth"
	"repro/internal/taxonomy"
)

// scansPerCycle is how many Table 2 scans follow each write: an archive
// is read more often than it is written.
const scansPerCycle = 4

// archiveCorpus is one set-up of log-archive: a generated short-term
// dataset as a .tsv.gz file, and the summary taken from the generator's
// own stream for the scans to be checked against.
type archiveCorpus struct {
	tsvPath, cdncPath string
	n                 int64
	summary           *logfmt.DatasetSummary
}

func (r *run) setupArchive(k int) (*archiveCorpus, error) {
	start := time.Now()
	scale := 0.005 // ≈110 k records: a cycle takes about a second
	if r.opt.short {
		scale = 0.0002
	}
	recs, err := r.generate(synth.ShortTermConfig(r.subSeed(k), scale))
	if err != nil {
		return nil, err
	}
	c := &archiveCorpus{
		tsvPath:  filepath.Join(r.tmp, fmt.Sprintf("archive-%d.tsv.gz", k)),
		cdncPath: filepath.Join(r.tmp, fmt.Sprintf("archive-%d.cdnc", k)),
		n:        int64(len(recs)),
		summary:  logfmt.NewDatasetSummary("archive"),
	}
	f, err := os.Create(c.tsvPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	w := logfmt.NewGzipWriter(f, logfmt.FormatTSV)
	for i := range recs {
		c.summary.Observe(&recs[i])
		if err := w.Write(&recs[i]); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	r.endSetup(start)
	return c, nil
}

// characterizer is jsonchar's observer set.
type characterizer struct {
	char         *taxonomy.Characterization
	cacheability *taxonomy.DomainCacheability
	hourly, fine *rollup.Rollup
}

func newCharacterizer() *characterizer {
	return &characterizer{
		char:         taxonomy.NewCharacterization(),
		cacheability: taxonomy.NewDomainCacheability(domaincat.NewCatalog()),
		hourly:       rollup.New(time.Hour),
		fine:         rollup.New(10 * time.Minute),
	}
}

func (c *characterizer) observe(rec *logfmt.Record) error {
	c.char.ObserveAny(rec)
	c.hourly.Observe(rec)
	c.fine.Observe(rec)
	if rec.IsJSON() {
		c.cacheability.Observe(rec)
	}
	return nil
}

// scanChunks streams a .cdnc file through ingest.RunChunks into fn.
func scanChunks(ctx context.Context, path string, workers int, fn func(*logfmt.Record) error) (ingest.Stats, error) {
	f, err := os.Open(path)
	if err != nil {
		return ingest.Stats{}, err
	}
	defer f.Close()
	return ingest.RunChunks(ctx, f, ingest.PipelineConfig{Workers: workers}, fn)
}

// scanTSV streams a .tsv.gz file through ingest.Run into fn.
func scanTSV(ctx context.Context, path string, workers int, fn func(*logfmt.Record) error) (ingest.Stats, error) {
	f, err := os.Open(path)
	if err != nil {
		return ingest.Stats{}, err
	}
	defer f.Close()
	return ingest.Run(ctx, f, logfmt.FormatTSV, ingest.PipelineConfig{Workers: workers}, fn)
}

// archiveCycle is the phase walls of one write–scan–characterise cycle.
type archiveCycle struct{ write, scan, characterise time.Duration }

func (c archiveCycle) wall() time.Duration { return c.write + c.scan + c.characterise }

// stage charges one ingest stage's accounting: n records in, n out,
// none quarantined.
func (r *run) stage(name string, c *archiveCorpus, st ingest.Stats) {
	r.attempted += c.n
	r.failed += st.Quarantined
	if short := c.n - st.Records - st.Quarantined; short > 0 {
		r.failed += short
	}
	r.check(st.Records == c.n && st.Quarantined == 0, "log-archive %s: %d records in, %d out, %d quarantined", name, c.n, st.Records, st.Quarantined)
}

// cycle is the jsonconvert/jsonchar path: convert the text log to the
// chunk container with the default configuration, scan it for the
// Table 2 counters, characterise it.
func (r *run) cycle(ctx context.Context, c *archiveCorpus) (archiveCycle, error) {
	var cy archiveCycle
	var err error
	var st ingest.Stats

	cy.write = r.rec.phase("write: ingest.Run → logfmt.ChunkWriter", func() {
		var f *os.File
		if f, err = os.Create(c.cdncPath); err != nil {
			return
		}
		defer f.Close()
		w := logfmt.NewChunkWriter(f, logfmt.ChunkConfig{})
		if st, err = scanTSV(ctx, c.tsvPath, r.p, w.Write); err != nil {
			return
		}
		if err = w.Close(); err == nil {
			err = f.Close()
		}
	})
	if err != nil {
		return cy, err
	}
	r.stage("write", c, st)

	for i := 0; i < scansPerCycle; i++ {
		sum := logfmt.NewDatasetSummary("archive")
		cy.scan += r.rec.phase("scan: ingest.RunChunks → DatasetSummary", func() {
			st, err = scanChunks(ctx, c.cdncPath, r.p, func(rec *logfmt.Record) error {
				sum.Observe(rec)
				return nil
			})
		})
		if err != nil {
			return cy, err
		}
		r.stage("scan", c, st)
		r.check(sameSummary(sum, c.summary), "log-archive: scan summary %v differs from the generator's %v", sum, c.summary)
	}

	ch := newCharacterizer()
	cy.characterise = r.rec.phase("characterise: ingest.RunChunks → taxonomy", func() {
		st, err = scanChunks(ctx, c.cdncPath, r.p, ch.observe)
	})
	if err != nil {
		return cy, err
	}
	r.stage("characterise", c, st)
	return cy, nil
}

func sameSummary(a, b *logfmt.DatasetSummary) bool {
	return a.Records() == b.Records() && a.JSONRecords() == b.JSONRecords() &&
		a.Domains() == b.Domains() && a.Clients() == b.Clients() && a.Duration() == b.Duration()
}

func logArchive(ctx context.Context, r *run) error {
	corpora := make([]*archiveCorpus, r.corpora())
	for k := range corpora {
		c, err := r.setupArchive(k)
		if err != nil {
			return err
		}
		corpora[k] = c
	}

	var writes, scans []float64
	timed, err := r.timedPasses(len(corpora), func(k int) (int, time.Duration, error) {
		c := corpora[k]
		cy, err := r.cycle(ctx, c)
		if err == nil {
			writes = append(writes, float64(c.n)/cy.write.Seconds())
			scans = append(scans, float64(scansPerCycle*c.n)/cy.scan.Seconds())
		}
		return int(c.n), cy.wall(), err
	})
	if err != nil {
		return err
	}
	timed.report(r.m)

	// The container must stay at most half the size of the plain binary
	// stream (the repository's MAXCHUNKRATIO gate).
	c := corpora[0]
	recs, _, err := readChunks(ctx, c.cdncPath, r.p, int(c.n))
	if err != nil {
		return err
	}
	var binary countingWriter
	bw := logfmt.NewBinaryWriter(&binary)
	for i := range recs {
		if err := bw.Write(&recs[i]); err != nil {
			return err
		}
	}
	if err := bw.Close(); err != nil {
		return err
	}
	info, err := os.Stat(c.cdncPath)
	if err != nil {
		return err
	}
	sizeRatio := float64(info.Size()) / float64(binary)
	r.check(sizeRatio <= 0.5, "log-archive: .cdnc is %.3f of the binary stream's size, want ≤ 0.5", sizeRatio)

	if !r.opt.trace {
		return nil
	}
	r.setSynthMetrics()
	timed.traced(r.m)
	r.m.set("bench.write_records_per_s", median(writes))
	r.m.set("bench.scan_records_per_s", median(scans))
	r.m.set("logfmt.disk_bytes_per_record", float64(info.Size())/float64(c.n))
	r.m.set("logfmt.bytes_ratio_vs_binary", sizeRatio)
	return r.archiveLayers(ctx, c, recs)
}

type countingWriter int64

func (w *countingWriter) Write(p []byte) (int, error) {
	*w += countingWriter(len(p))
	return len(p), nil
}

// archiveLayers times each layer of the archive path by itself over one
// corpus: the codec on one thread, the pipelines with a no-op consumer,
// the observers over records already in memory.
func (r *run) archiveLayers(ctx context.Context, c *archiveCorpus, recs []logfmt.Record) error {
	n := float64(len(recs))
	noop := func(*logfmt.Record) error { return nil }
	var err error
	perSecond := func(name string, fn func()) float64 {
		return n / r.rec.phase(name, fn).Seconds()
	}

	r.m.set("logfmt.chunk_write_records_per_s", perSecond("logfmt.ChunkWriter", func() {
		w := logfmt.NewChunkWriter(io.Discard, logfmt.ChunkConfig{})
		for i := range recs {
			if err == nil {
				err = w.Write(&recs[i])
			}
		}
		if err == nil {
			err = w.Close()
		}
	}))
	if err != nil {
		return err
	}

	container, err := os.ReadFile(c.cdncPath)
	if err != nil {
		return err
	}
	r.m.set("logfmt.chunk_decode_records_per_s", perSecond("logfmt.ChunkReader", func() {
		err = logfmt.NewChunkReader(bytes.NewReader(container)).ForEach(noop)
	}))
	if err != nil {
		return err
	}

	lines := make([]string, len(recs))
	for i := range recs {
		lines[i] = string(logfmt.AppendTSV(nil, &recs[i]))
	}
	r.m.set("logfmt.tsv_parse_records_per_s", perSecond("logfmt.ParseTSV", func() {
		var rec logfmt.Record
		for _, line := range lines {
			if err == nil {
				err = logfmt.ParseTSV(line, &rec)
			}
		}
	}))
	if err != nil {
		return err
	}

	var st ingest.Stats
	chunksP := perSecond("ingest.RunChunks", func() { st, err = scanChunks(ctx, c.cdncPath, r.p, noop) })
	if err != nil {
		return err
	}
	r.m.set("ingest.run_chunks_records_per_s", chunksP)
	r.m.set("ingest.quarantined", float64(st.Quarantined))
	chunks1 := perSecond("ingest.RunChunks workers=1", func() { _, err = scanChunks(ctx, c.cdncPath, 1, noop) })
	if err != nil {
		return err
	}
	r.m.set("ingest.parallel_speedup", chunksP/chunks1)
	r.m.set("ingest.run_tsv_records_per_s", perSecond("ingest.Run tsv.gz", func() { _, err = scanTSV(ctx, c.tsvPath, r.p, noop) }))
	if err != nil {
		return err
	}

	ch := newCharacterizer()
	d := r.rec.phase("taxonomy observers", func() {
		for i := range recs {
			ch.observe(&recs[i])
		}
	})
	r.m.set("taxonomy.observe_ns_per_record", float64(d.Nanoseconds())/n)
	return nil
}
