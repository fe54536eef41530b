//go:build linux

package replay

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// fineTimer is the pacer's sub-millisecond sleep: a read on a timerfd.
// The descriptor is registered with the runtime's netpoller like any
// socket, so the goroutine parks — no thread blocked and no P held, as
// a nanosleep would hold one for the whole wait, which on two Ps shared
// with a busy server costs more than the sleep saves — and the kernel's
// high-resolution timer makes the descriptor readable at the instant,
// which wakes a thread out of epoll_wait whatever timeout, in whole
// milliseconds, that call was given.
type fineTimer struct {
	f  *os.File
	fd uintptr // f's descriptor; asking f.Fd() for it would make it blocking
	// err is why the timerfd cannot be used (a kernel or sandbox without
	// it); from then on sleep is the runtime's.
	err error
}

func (t *fineTimer) sleep(d time.Duration) {
	if t.f == nil && t.err == nil {
		// CLOCK_MONOTONIC; the TFD_ flags are the O_ flags by definition.
		fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1, uintptr(syscall.O_NONBLOCK|syscall.O_CLOEXEC), 0)
		if errno != 0 {
			t.err = os.NewSyscallError("timerfd_create", errno)
		} else {
			t.fd, t.f = fd, os.NewFile(fd, "timerfd")
		}
	}
	if t.err == nil {
		t.err = t.expire(d)
	}
	if t.err != nil {
		time.Sleep(d) // late by the runtime's floor, never early
	}
}

// expire arms the timer to go off once, d from now, and waits for it. d
// must be positive: zero disarms a timerfd and the read would not end.
func (t *fineTimer) expire(d time.Duration) error {
	spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(d))} // {it_interval, it_value}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	var expirations [8]byte
	_, err := t.f.Read(expirations[:])
	return err
}

func (t *fineTimer) close() {
	if t.f != nil {
		t.f.Close()
	}
}
