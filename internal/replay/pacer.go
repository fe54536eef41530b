package replay

import (
	"context"
	"time"
)

// A pacer holds the dispatcher until a ticket's intended instant. The
// runtime's timers cannot do that below a millisecond: an idle Go
// process parks in the netpoller, whose timeout is whole milliseconds
// and never less than one, so a 500 µs wait on time.After, a reused
// time.Timer or time.Sleep alike comes back a median 0.7 ms late and a
// wait of any length up to a millisecond past its instant. At 2000
// requests a second that lateness, not the server, was the open loop's
// median. The pacer therefore aims its runtime timer coarseMargin short
// of the instant and spends the remainder on its fineTimer — a timerfd
// where the platform has one (pacer_linux.go), the runtime's sleep
// elsewhere.
//
// It never returns before the instant: every path ends on the
// time.Until check at the top of the loop.
type pacer struct {
	timer *time.Timer // the coarse part of a wait; made on first use
	fine  fineTimer
}

const (
	// coarseMargin is how far short of the instant the runtime timer is
	// aimed: two of the netpoller's one-millisecond floors, which is
	// where its measured lateness ends (p99 2.0 ms on a 3.3 ms wait).
	coarseMargin = 2 * time.Millisecond
	// fineSlice bounds one fine sleep, which a cancellation does not
	// interrupt; the context is looked at between slices.
	fineSlice = time.Millisecond
)

// wait blocks until the instant and returns nil, or ctx's error if ctx
// ended first.
func (p *pacer) wait(ctx context.Context, until time.Time) error {
	for ctx.Err() == nil {
		d := time.Until(until)
		switch {
		case d <= 0:
			return nil
		case d > coarseMargin:
			if p.timer == nil {
				p.timer = time.NewTimer(d - coarseMargin)
			} else {
				p.timer.Reset(d - coarseMargin)
			}
			select {
			case <-p.timer.C:
			case <-ctx.Done():
				p.timer.Stop()
			}
		default:
			p.fine.sleep(min(d, fineSlice))
		}
	}
	return ctx.Err()
}

// close releases what the fine timer holds.
func (p *pacer) close() { p.fine.close() }
