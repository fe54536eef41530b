package ingest

import (
	"context"
	"sync"
)

const (
	// queueDepth is the capacity, in units, of each bounded channel of
	// the ordered stage: deep enough that a worker rarely waits on the
	// producer, shallow enough that a slow consumer backpressures the
	// read after a few units instead of buffering the file.
	queueDepth = 4
	// batchSize is the number of text lines handed to a worker at once.
	batchSize = 256
)

// seqd tags a unit with its position in the stream.
type seqd[T any] struct {
	seq int64
	v   T
}

// ordered is the one fan-out/fan-in: produce emits units in stream
// order, workers goroutines each turn units into results with a work
// function of their own (newWork runs once per worker, so it can hold
// per-worker state), and deliver receives the results on the caller's
// goroutine in emit order. The stages are connected by bounded
// channels, so a slow deliver backpressures produce instead of
// ballooning memory: while deliver runs, at most 2*queueDepth + workers
// units wait behind it. emit reports false once the run is stopping;
// produce should then return. The first deliver error, or ctx's
// cancellation, stops the run and is returned; otherwise produce's
// error is.
//
// One worker means no parallelism to buy, so all three steps then run
// unit by unit on the caller's goroutine, with no channel hops.
func ordered[J, R any](ctx context.Context, workers int, m *Instrumentation,
	produce func(emit func(J) bool) error,
	newWork func() func(J) R,
	deliver func(R) error,
) error {
	if workers == 1 {
		work := newWork()
		var derr error
		perr := produce(func(j J) bool {
			if derr = ctx.Err(); derr == nil {
				derr = deliver(work(j))
			}
			return derr == nil
		})
		if derr != nil {
			return derr
		}
		return perr
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	jobs := make(chan seqd[J], queueDepth)
	results := make(chan seqd[R], queueDepth)

	var perr error
	go func() {
		defer close(jobs)
		var seq int64
		perr = produce(func(j J) bool {
			select {
			case jobs <- seqd[J]{seq, j}:
				seq++
				if m != nil {
					m.QueueDepth.Set(float64(len(jobs)))
				}
				return true
			case <-ctx.Done():
				return false
			}
		})
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work := newWork()
			for j := range jobs {
				select {
				case results <- seqd[R]{j.seq, work(j.v)}:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Workers finish out of order; hold early results until their turn.
	pending := make(map[int64]R)
	var next int64
	for res := range results {
		pending[res.seq] = res.v
		for {
			r, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			err := ctx.Err()
			if err == nil {
				err = deliver(r)
			}
			if err != nil {
				cancel()
				for range results { // let the workers exit
				}
				return err
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return perr
}

// freeList recycles slices between the stages of one run. get and put
// never block: a miss allocates and an overflow drops, so a list sized
// to the units in flight makes steady-state ingest allocation-free
// without ever stalling a stage.
type freeList[T any] chan []T

// newFreeList sizes a list for everything ordered can have in flight
// plus the units the producer and the deliverer each hold.
func newFreeList[T any](workers int) freeList[T] {
	return make(freeList[T], 2*queueDepth+workers+2)
}

// get returns an empty slice, recycled when one is free, else with
// capacity for n elements.
func (f freeList[T]) get(n int) []T {
	select {
	case b := <-f:
		return b[:0]
	default:
		return make([]T, 0, n)
	}
}

func (f freeList[T]) put(b []T) {
	select {
	case f <- b:
	default:
	}
}
