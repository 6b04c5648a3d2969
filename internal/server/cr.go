package server

import (
	"net/http"

	"idlereduce/internal/ledger"
)

// CRResponse is the GET /v1/cr body: the competitive-ratio ledger's
// per-{area, engine} table plus the join-plane counters. Each row
// carries the empirical CR with its variance band and the engine's
// published worst-case bound, so a dashboard (or `idled top`) can
// render every engine against its theoretical guarantee.
type CRResponse struct {
	// Rows is the CR table, sorted by (area, engine).
	Rows []ledger.Row `json:"rows"`
	// Pending counts decisions still awaiting their outcome.
	Pending int `json:"pending"`
	// Counters are the ledger's monotone event counts (issued, settled,
	// orphaned, expired, breaches).
	Counters ledger.Counters `json:"counters"`
}

// handleCR serves GET /v1/cr. Like /v1/history it bypasses the
// in-flight limiter, so the guarantee watchdog keeps rendering while
// decision load is shed.
func (s *Server) handleCR(w http.ResponseWriter, r *http.Request, _ call) {
	s.writeJSON(w, http.StatusOK, CRResponse{
		Rows:     s.ledger.Rows(),
		Pending:  s.ledger.PendingCount(),
		Counters: s.ledger.Counters(),
	})
}
