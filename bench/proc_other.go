//go:build !linux

package main

import (
	"errors"
	"syscall"
)

// The benchmark reads daemon CPU, memory and I/O from /proc, so it runs
// on Linux only; elsewhere it builds and fails at the first reading.

func childAttr() *syscall.SysProcAttr { return nil }

func readUsage(int) (usage, error) {
	return usage{}, errors.New("bench: daemon resource counters need Linux /proc")
}

func loadavg() string { return "unknown" }
