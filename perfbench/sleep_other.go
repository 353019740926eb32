//go:build !linux

package main

import "time"

// sleepFor is time.Sleep where nanosleep is not available.
func sleepFor(d time.Duration) { time.Sleep(d) }
