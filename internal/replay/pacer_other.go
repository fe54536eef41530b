//go:build !linux

package replay

import "time"

// fineTimer has no timerfd to read here and keeps the runtime's sleep,
// with its one-millisecond floor.
type fineTimer struct{}

func (fineTimer) sleep(d time.Duration) { time.Sleep(d) }

func (fineTimer) close() {}
