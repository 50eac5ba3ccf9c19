package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat; it is 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// childAttr makes the kernel SIGKILL a daemon whose parent thread dies,
// which covers the one exit path no defer can: the bench itself being
// SIGKILLed.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// readUsage reads a process's CPU time, peak RSS and storage writes.
func readUsage(pid int) (usage, error) {
	var u usage
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the ") ".
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	fields := strings.Fields(string(rest))
	if len(fields) < 13 {
		return u, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return u, fmt.Errorf("unparsable /proc/%d/stat", pid)
	}
	u.cpu = time.Duration(utime+stime) * clockTick

	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	u.hwmBytes = procField(status, "VmHWM:") * 1024
	// /proc/<pid>/io needs no privilege for one's own children; a kernel
	// without task I/O accounting simply reports no disk bytes.
	if io, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid)); err == nil {
		u.writeBytes = procField(io, "write_bytes:")
	}
	return u, nil
}

// procField returns the integer following key in a /proc key-value file.
func procField(data []byte, key string) int64 {
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, key) {
			f := strings.Fields(line[len(key):])
			if len(f) > 0 {
				v, _ := strconv.ParseInt(f[0], 10, 64)
				return v
			}
		}
	}
	return 0
}

func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
