package main

import (
	"os"
	"testing"
	"time"
)

func TestParseStatFixture(t *testing.T) {
	b, err := os.ReadFile("testdata/proc_stat.txt")
	if err != nil {
		t.Fatal(err)
	}
	// The command "perf bench) worker" holds a space and a ')'.
	utime, stime, err := parseStat(b)
	if err != nil {
		t.Fatal(err)
	}
	if utime != 1234 || stime != 567 {
		t.Fatalf("utime, stime = %d, %d; want 1234, 567", utime, stime)
	}
}

func TestParseStatRejectsMalformed(t *testing.T) {
	for _, in := range []string{"", "12 (x S 1", "12 (x) S 1 2 3", "12 (x) S 1 1 1 0 -1 0 0 0 0 0 abc 5 0"} {
		if _, _, err := parseStat([]byte(in)); err == nil {
			t.Errorf("parseStat(%q) accepted malformed input", in)
		}
	}
}

func TestParseStatusFixture(t *testing.T) {
	b, err := os.ReadFile("testdata/proc_status.txt")
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]int64{"VmHWM": 262144, "VmRSS": 201728, "VmPeak": 1820412} {
		got, err := parseStatusKB(b, key)
		if err != nil || got != want {
			t.Errorf("%s = %d, %v; want %d", key, got, err, want)
		}
	}
	if _, err := parseStatusKB(b, "VmSwap"); err == nil {
		t.Error("missing key accepted")
	}
	if _, err := parseStatusKB([]byte("VmHWM:\t12 MB\n"), "VmHWM"); err == nil {
		t.Error("non-kB unit accepted")
	}
}

// The live readers agree with the process's own view of itself.
func TestProcSelf(t *testing.T) {
	pid := os.Getpid()
	deadline := time.Now().Add(100 * time.Millisecond)
	for x := 0; time.Now().Before(deadline); x++ {
		_ = x * x
	}
	cpu, err := procCPU(pid)
	if err != nil || cpu <= 0 {
		t.Fatalf("procCPU = %v, %v", cpu, err)
	}
	rss, err := procPeakRSSMB(pid)
	if err != nil || rss <= 0 {
		t.Fatalf("procPeakRSSMB = %v, %v", rss, err)
	}
}
