package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"time"
)

// clockTicks is USER_HZ, the unit of the utime/stime fields of
// /proc/<pid>/stat. It is 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPU is a process's cumulative user+system CPU time, summed over
// all of its threads, read from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	utime, stime, err := parseStat(b)
	if err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// parseStat extracts utime and stime (fields 14 and 15, in clock
// ticks) from the contents of /proc/<pid>/stat. The command name in
// field 2 may itself contain spaces and parentheses, so fields are
// counted from the last ')'.
func parseStat(b []byte) (utime, stime uint64, err error) {
	end := bytes.LastIndexByte(b, ')')
	if end < 0 {
		return 0, 0, fmt.Errorf("procfs: stat: no command field")
	}
	// After the command: field 3 (state) is index 0, so field n is
	// index n-3.
	f := bytes.Fields(b[end+1:])
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("procfs: stat: %d fields after command, want >= 13", len(f))
	}
	if utime, err = strconv.ParseUint(string(f[11]), 10, 64); err != nil {
		return 0, 0, fmt.Errorf("procfs: stat utime: %w", err)
	}
	if stime, err = strconv.ParseUint(string(f[12]), 10, 64); err != nil {
		return 0, 0, fmt.Errorf("procfs: stat stime: %w", err)
	}
	return utime, stime, nil
}

// procPeakRSSMB is a process's peak resident set size (VmHWM) in MB
// (2^20 bytes), read from /proc/<pid>/status.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(b, "VmHWM")
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

// parseStatusKB returns the value in kB of one "Key:   N kB" line of
// /proc/<pid>/status.
func parseStatusKB(b []byte, key string) (int64, error) {
	for _, line := range bytes.Split(b, []byte("\n")) {
		name, rest, ok := bytes.Cut(line, []byte(":"))
		if !ok || string(name) != key {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("procfs: status %s: malformed value %q", key, rest)
		}
		v, err := strconv.ParseInt(string(f[0]), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("procfs: status %s: %w", key, err)
		}
		return v, nil
	}
	return 0, fmt.Errorf("procfs: status: no %s line", key)
}

// machineSteal returns the machine-wide steal and total CPU time in
// clock ticks from the first line of /proc/stat.
func machineSteal() (steal, total uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, 0, fmt.Errorf("procfs: stat: malformed cpu line %q", line)
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseUint(string(x), 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("procfs: stat cpu field %d: %w", i+1, err)
		}
		// guest and guest_nice (fields 9, 10) are already in user/nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}
