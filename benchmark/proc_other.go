//go:build !linux

package main

import (
	"errors"
	"syscall"
)

// The benchmark reads the daemon's CPU and memory from /proc; elsewhere
// it builds but refuses to measure.
var errNoProc = errors.New("the benchmark needs Linux /proc")

func childAttr() *syscall.SysProcAttr      { return nil }
func procCPU(pid int) (float64, error)     { return 0, errNoProc }
func procPeakRSS(pid int) (float64, error) { return 0, errNoProc }
func selfCPU() float64                     { return 0 }
