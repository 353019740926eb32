package main

import (
	"syscall"
	"time"
)

// sleepFor blocks the calling goroutine's thread in nanosleep. The Go
// timer wheel wakes sleepers on ~1ms boundaries here, which alone would
// make an open-loop generator run up to a millisecond late; nanosleep
// wakes within the kernel's timer slack (~50us) while the runtime hands
// the goroutine's processor to other work.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
