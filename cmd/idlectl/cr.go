package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"idlereduce/internal/ledger"
	"idlereduce/internal/policy"
	"idlereduce/internal/server"
	"idlereduce/internal/textplot"
)

// crCmd rebuilds the competitive-ratio table forensically from a
// decision audit log alone: ledger-opted decide records re-issue their
// pending entries and settle records re-join them through a fresh
// ledger, reproducing the per-{area, engine} empirical CR the live
// daemon reported at GET /v1/cr — no daemon required.
func crCmd(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("cr", flag.ContinueOnError)
	logPath := fs.String("log", "", "decision audit log written by idled serve -audit-log (default stdin)")
	jsonOut := fs.Bool("json", false, "emit the table as JSON rows instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var r io.Reader = stdin
	if *logPath != "" && *logPath != "-" {
		f, err := os.Open(*logPath)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}

	// Replay ledger: a settle record in the log is proof the live daemon
	// joined it, so the forensic pass must never expire or evict what
	// the daemon kept — TTL effectively infinite, capacity generous
	// (8 Mi pending decisions, 256 times the daemon's default).
	led := ledger.New(ledger.Config{TTLMS: math.MaxInt64 / 2, Capacity: 8 << 20})

	unjoined := 0
	var issueErr error
	_, err := server.ReadAudit(r, func(n int, rec any) {
		if issueErr != nil {
			return
		}
		// Crash tails, corrupt lines and observe records are audit
		// verify's concern; the forensic join skips them.
		switch rec := rec.(type) {
		case server.AuditRecord:
			if rec.DecisionID == "" {
				return
			}
			// The live ledger keys accumulators by the serving engine's
			// pinned spec. A record no registered engine can serve is
			// left out; its settle then counts as unjoined.
			eng, err := rec.Engine()
			if err != nil {
				return
			}
			if _, err := led.Issue(ledger.Pending{
				ID: rec.DecisionID, Area: rec.Area, Engine: policy.Spec(eng),
				Params: rec.Params, B: rec.B, ThresholdSec: rec.ThresholdSec,
				Bound: rec.CRBound, IssuedUnixMS: rec.TSUnixMS,
			}); err != nil {
				issueErr = fmt.Errorf("line %d: issue %s: %w", n, rec.DecisionID, err)
			}
		case server.SettleRecord:
			// The settle re-joins through the ledger, so it is costed
			// under eq. 3 whatever rule its record was written under.
			if _, err := led.Settle(rec.DecisionID, rec.StopSec, rec.TSUnixMS); err != nil {
				// A settle whose decide fell outside this log slice (file
				// rotation, bounded writer drop) still counts; note it
				// rather than failing the whole rebuild.
				unjoined++
			}
		}
	})
	if err != nil {
		return fmt.Errorf("read audit log: %w", err)
	}
	if issueErr != nil {
		return issueErr
	}

	rows := led.Rows()
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(server.CRResponse{Rows: rows, Pending: led.PendingCount(), Counters: led.Counters()})
	}
	c := led.Counters()
	fmt.Fprintf(stdout, "cr rebuild: %d issued, %d settled, %d still pending", c.Issued, c.Settled, led.PendingCount())
	if unjoined > 0 {
		fmt.Fprintf(stdout, ", %d settles without a decide in this log", unjoined)
	}
	fmt.Fprintln(stdout)
	if len(rows) == 0 {
		fmt.Fprintln(stdout, "no settled decisions in the log (decide with \"ledger\": true and settle via decision_id)")
		return nil
	}
	table := [][]string{{"area", "engine", "settles", "CR", "±band", "bound", "breaches", "mean online", "mean opt"}}
	for _, row := range rows {
		band := "--"
		if row.Band >= 0 {
			band = fmt.Sprintf("%.3f", row.Band)
		}
		bound := "--"
		if row.Bound > 0 {
			bound = fmt.Sprintf("%.3f", row.Bound)
		}
		table = append(table, []string{
			row.Area, row.Engine,
			fmt.Sprintf("%d", row.Settled),
			fmt.Sprintf("%.3f", row.CR),
			band, bound,
			fmt.Sprintf("%d", row.Breaches),
			fmt.Sprintf("%.2f", row.MeanOnline),
			fmt.Sprintf("%.2f", row.MeanOpt),
		})
	}
	fmt.Fprint(stdout, textplot.Table(table))
	return nil
}
