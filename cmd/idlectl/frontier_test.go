package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"strconv"
	"strings"
	"testing"
)

var updateFrontierGolden = flag.Bool("update-frontier-golden", false, "re-record the testdata/frontier*_golden.txt tables")

// TestFrontierGolden pins the default sweep as a committed artifact:
// the Fig-4-style table `idlectl frontier` prints with no flags must
// reproduce byte-for-byte. Re-record deliberately with
// `go test ./cmd/idlectl -run TestFrontierGolden -update-frontier-golden`.
func TestFrontierGolden(t *testing.T) {
	checkFrontierGolden(t, "testdata/frontier_golden.txt", "frontier")
}

// TestFrontierGoldenDistAdvice pins the distadvice sweep over a b-DET
// fallback (x* = 6.83). Its robust-cr column is the worst case over the
// whole trust region [x* - λB, x* + λB] ∩ [0, B]: at λ = 0.25 that is
// every threshold in [0, 13.83], WorstCaseMixedCost(28, 0.5, 0.3, 0,
// 13.83) / 8.9 = 3.6685.
func TestFrontierGoldenDistAdvice(t *testing.T) {
	out := checkFrontierGolden(t, "testdata/frontier_distadvice_golden.txt",
		"frontier", "-engine", "distadvice", "-mu", "0.5", "-q", "0.3")
	if rows := parseFrontierTable(t, out); len(rows) != 5 || rows[1][0] < 3.6685 {
		t.Errorf("distadvice robust-cr at lambda=0.25 understates the trust region's worst case 3.6685:\n%s", out)
	}
}

// checkFrontierGolden runs idlectl with args and compares its output
// with the golden at path, re-recording it under
// -update-frontier-golden.
func checkFrontierGolden(t *testing.T, path string, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, strings.NewReader(""), &buf); err != nil {
		t.Fatal(err)
	}
	if *updateFrontierGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (re-record with -update-frontier-golden): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("frontier output diverged from golden artifact:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
	return buf.String()
}

// parseFrontierTable pulls the numeric cells out of the rendered
// table: one row per lambda, robust-cr first, then the predictor CRs.
func parseFrontierTable(t *testing.T, out string) [][]float64 {
	t.Helper()
	var rows [][]float64
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		if _, err := strconv.ParseFloat(fields[0], 64); err != nil {
			continue // header, rule, or banner line
		}
		var row []float64
		for _, f := range fields[1:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				t.Fatalf("bad cell %q in %q", f, line)
			}
			row = append(row, v)
		}
		rows = append(rows, row)
	}
	return rows
}

// TestFrontierMonotone is the acceptance property on the rendered
// artifact itself: down the table, the robustness bound never
// improves and the oracle's realized CR never degrades — the
// consistency-robustness trade is monotone in the trust parameter.
func TestFrontierMonotone(t *testing.T) {
	for _, engine := range []string{"softml", "distadvice"} {
		var buf bytes.Buffer
		if err := run([]string{"frontier", "-engine", engine, "-n", "800"}, strings.NewReader(""), &buf); err != nil {
			t.Fatal(err)
		}
		rows := parseFrontierTable(t, buf.String())
		if len(rows) != 5 {
			t.Fatalf("%s: parsed %d lambda rows, want 5:\n%s", engine, len(rows), buf.String())
		}
		for i := 1; i < len(rows); i++ {
			if rows[i][0] < rows[i-1][0] {
				t.Errorf("%s: robustness improved down the table: %v after %v", engine, rows[i][0], rows[i-1][0])
			}
			if rows[i][1] > rows[i-1][1] {
				t.Errorf("%s: oracle CR degraded down the table: %v after %v", engine, rows[i][1], rows[i-1][1])
			}
		}
		last := rows[len(rows)-1]
		if engine == "softml" && last[1] != 1 {
			t.Errorf("softml oracle at lambda=1 CR %v, want exactly 1", last[1])
		}
	}
}

// TestFrontierFlags: JSON mode emits the raw sweep; bad flags fail
// cleanly.
func TestFrontierFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"frontier", "-n", "50", "-lambdas", "0,1", "-json"}, strings.NewReader(""), &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"engine": "softml"`, `"robustness_cr"`, `"predictor": "oracle"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("JSON output missing %s", want)
		}
	}
	if err := run([]string{"frontier", "-engine", "psychic"}, strings.NewReader(""), io.Discard); err == nil {
		t.Error("want error for unknown engine")
	}
	if err := run([]string{"frontier", "-lambdas", "0,weird"}, strings.NewReader(""), io.Discard); err == nil {
		t.Error("want error for malformed lambda grid")
	}
	if err := run([]string{"frontier", "-n", "0"}, strings.NewReader(""), io.Discard); err == nil {
		t.Error("want error for empty trace")
	}
}
