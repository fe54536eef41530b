package ingest

import (
	"context"
	"io"

	"repro/internal/logfmt"
	"repro/internal/obs"
)

// chunk is the unit of the chunk pipeline, carried from scan through
// decode to delivery: a raw frame that decodes into recs, or a
// quarantined span.
type chunk struct {
	rc   logfmt.RawChunk
	recs []logfmt.Record
	// bad marks the span as quarantined: by the scanner when framing
	// was lost (rc is then zero and skipped holds the bytes the resync
	// discarded), by the decoder when the frame was intact but its
	// contents failed.
	bad     *logfmt.DecodeError
	skipped int64
}

// RunChunks streams a chunk-container log through the ordered stage to
// fn: the producer walks the chunk frames sequentially (header
// validation only — no decompression), the workers decompress,
// checksum, and decode whole chunks concurrently, and the caller's
// goroutine merges the decoded batches back into stream order,
// quarantines bad chunks, enforces the error budget, and invokes fn.
//
// The per-chunk work is arena-style and low-alloc: payload buffers and
// record batches recycle through free-lists, each worker owns one
// logfmt.ChunkDecoder whose decompressor and scratch buffers persist
// across every chunk that worker decodes, and records are handed to fn
// as pointers into the batch (the *logfmt.Record is reused; observers
// copy what they retain, per the core.Source contract). Decoding
// copies each distinct string of a chunk once and hashes none; records
// of different chunks share no strings, so a caller that keeps many
// records interns what it keeps (logfmt.Interner).
//
// Corruption quarantines at chunk granularity: a chunk that fails its
// header CRC, payload CRC, or record decode loses its claimed record
// count and the scanner resyncs to the next validated chunk header.
// It returns the accounting even on error. Cancelling ctx stops the run
// with ctx's error; fn's first error also stops it.
func RunChunks(ctx context.Context, r io.Reader, cfg PipelineConfig, fn func(*logfmt.Record) error) (Stats, error) {
	cfg.sanitize()
	if ctx == nil {
		ctx = context.Background()
	}
	led := newLedger(cfg.Options)
	m := cfg.Options.Metrics
	sc := logfmt.NewChunkScanner(r)

	parent := obs.SpanFromContext(ctx)
	scanSp := parent.Child("ingest chunk scan")
	decodeSp := parent.Child("ingest chunk decode")
	deliverSp := parent.Child("ingest deliver")
	defer func() {
		decodeSp.End()
		deliverSp.AddRecords(led.stats.Records)
		deliverSp.End()
	}()

	// A scanned payload aliases the scanner's buffer until the next
	// Next. Inline, the chunk is decoded before then; with workers the
	// scanner runs ahead, so each payload is copied into a recycled
	// buffer the worker hands back once it has decoded it.
	copyPayload := cfg.Workers > 1
	payloadFree := newFreeList[byte](cfg.Workers)
	batchFree := newFreeList[logfmt.Record](cfg.Workers)

	// Corrupt spans travel through the same stage as sound chunks so
	// the ledger sees them in stream order.
	produce := func(emit func(chunk) bool) error {
		defer func() {
			scanSp.AddBytes(sc.Offset())
			scanSp.End()
		}()
		for {
			var c chunk
			err := sc.Next(&c.rc)
			if err == io.EOF {
				return nil
			}
			if c.bad = logfmt.AsDecodeError(err); c.bad != nil {
				// Framing is suspect: scan for the next validated chunk
				// header, then report the span with the bytes that cost.
				var rerr error
				c.skipped, rerr = sc.Resync(maxResyncScan)
				if !emit(c) || rerr == io.EOF {
					return nil
				}
				if rerr != nil {
					return resyncFailed(c.bad, rerr)
				}
				continue
			}
			if err != nil {
				return err
			}
			if copyPayload {
				c.rc.Payload = append(payloadFree.get(len(c.rc.Payload)), c.rc.Payload...)
			}
			if !emit(c) {
				return nil
			}
		}
	}
	newWork := func() func(chunk) chunk {
		var dec *logfmt.ChunkDecoder
		return func(c chunk) chunk {
			if c.bad != nil {
				return c
			}
			if dec == nil {
				dec = logfmt.NewChunkDecoder(sc.Codec())
			}
			t0 := m.decodeStart()
			// A fresh batch starts empty: Decode sizes it from the
			// header's count, which it bounds against a forged one.
			recs, err := dec.Decode(&c.rc, batchFree.get(0))
			m.decodeDone(t0)
			if err != nil {
				c.bad = logfmt.AsDecodeError(err)
				batchFree.put(recs)
			} else {
				c.recs = recs
			}
			decodeSp.AddRecords(int64(len(c.recs)))
			decodeSp.AddBytes(c.rc.FrameLen())
			if copyPayload {
				payloadFree.put(c.rc.Payload)
			}
			c.rc.Payload = nil
			return c
		}
	}
	deliver := func(c chunk) error {
		if c.bad != nil {
			return led.bad(c.bad, int64(c.rc.Records), c.skipped, true)
		}
		err := led.deliver(c.recs, fn)
		batchFree.put(c.recs)
		return err
	}
	err := ordered(ctx, cfg.Workers, m, produce, newWork, deliver)
	return led.stats, err
}
