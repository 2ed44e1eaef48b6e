package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer holds a worker until a request's due time. Go's timers wake up to
// a millisecond late on Linux, which would swamp a sub-millisecond
// request, so a pacer arms a timerfd and blocks reading it through the
// runtime's network poller: the wait holds no processor, and it ends as
// precisely as a socket becoming readable. (A nanosleep is as precise but
// parks a processor in a system call, which made CPU and latency figures
// vary by a quarter between runs.) The lag that remains is recorded per
// request.
type pacer struct {
	fd int
	f  *os.File
}

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &pacer{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// wait blocks until the instant due (ns since epoch).
func (p *pacer) wait(due int64) {
	d := due - now()
	if d <= 0 {
		return
	}
	// struct itimerspec: it_interval (zero: one-shot), then it_value.
	spec := [4]int64{0, 0, d / int64(time.Second), d % int64(time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(p.fd), 0,
		uintptr(unsafe.Pointer(&spec[0])), 0, 0, 0); errno != 0 {
		time.Sleep(time.Duration(d)) // cannot happen for a valid timerfd; stay on schedule anyway
		return
	}
	var buf [8]byte
	_, _ = p.f.Read(buf[:]) // returns once the timer has expired
}

func (p *pacer) close() { p.f.Close() }
