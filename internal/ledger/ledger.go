// Package ledger joins online decisions to their realized outcomes —
// the measurement plane for the paper's central quantity, the
// competitive ratio CR = E[cost_online] / E[cost_offline].
//
// A decision enters as a Pending entry (decision id, area, engine,
// break-even interval B, the threshold actually drawn). When the
// completed stop length y arrives with the same decision id, the entry
// settles into a realized-cost record, the paper's eq. 3 and eq. 2
// (skirental.OnlineCost and skirental.OfflineCost):
//
//	online = min(y, T) + B·1[y ≥ T]   (idle until T, restart once reached)
//	opt    = min(y, B)                (the offline clairvoyant's cost)
//
// and streams into a per-{area, engine} accumulator of the empirical
// CR. The accumulator keeps exponentially-forgotten first and second
// moments of (online, opt) pairs, so the ratio-of-means estimate
// carries a delta-method variance band; a breach detector compares the
// band against the engine's published worst-case bound and trips after
// a configurable run of confidently-violating windows.
//
// Every number the ledger holds and reports is finite. A settle whose
// costs would carry any running sum of its accumulator past float64's
// range (a squared online cost past ~1.34e154) is refused and its
// entry stays pending. A CR that float64 cannot hold reads as
// math.MaxFloat64: the mean optimal cost underflows against the mean
// online cost (a settle at a subnormal stop: TOI's restart B over a
// 5e-324 s stop). A band that float64 cannot hold (its moments
// underflow, as for stops below ~1e-154 s) reads as not estimable, as
// a band of fewer than two effective samples does. Every CR and band
// inside float64's range is computed exactly as the formulas above say.
//
// The package is deliberately clock-free: callers pass wall times in,
// every transition is a pure function of its inputs, and the full
// state round-trips through State — which is what lets a snapshot
// restore resume the ledger byte-identically and lets `idlectl cr`
// rebuild the same table forensically from an audit log alone.
package ledger

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"idlereduce/internal/skirental"
)

// Stable error classes; the server maps them to the wire codes
// unknown_decision and duplicate_settle.
var (
	// ErrUnknownDecision reports a settle for an id that is not pending:
	// never issued, already expired, or evicted under capacity pressure.
	ErrUnknownDecision = errors.New("ledger: unknown decision")
	// ErrDuplicateSettle reports a second settle of an id that already
	// settled (within the retained duplicate-detection window).
	ErrDuplicateSettle = errors.New("ledger: duplicate settle")
)

// Config parameterizes a Ledger. The zero value takes every default.
type Config struct {
	// Capacity bounds the pending table, which holds every pending
	// decision in issue order; when it is full the oldest entry is
	// evicted (counted as expired). It also bounds the ring of settled
	// ids kept for duplicate detection. Default 32768.
	Capacity int
	// TTLMS expires pending entries older than this many milliseconds
	// at settle/issue time (default 600_000, ten minutes).
	TTLMS int64
	// Forgetting is the accumulator decay per settle in (0, 1]
	// (default 1: plain cumulative Welford moments).
	Forgetting float64
	// Window is the number of settles per breach-detector evaluation
	// window (default 20).
	Window int
	// Patience is the number of consecutive violating windows before a
	// breach trips (default 3).
	Patience int
	// Band is the variance-band half-width multiplier z (default 2).
	Band float64
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 32768
	}
	if c.TTLMS <= 0 {
		c.TTLMS = 600_000
	}
	if c.Forgetting <= 0 || c.Forgetting > 1 || math.IsNaN(c.Forgetting) {
		c.Forgetting = 1
	}
	if c.Window <= 0 {
		c.Window = 20
	}
	if c.Patience <= 0 {
		c.Patience = 3
	}
	if c.Band <= 0 || math.IsNaN(c.Band) {
		c.Band = 2
	}
	return c
}

// Pending is one decision awaiting its outcome.
type Pending struct {
	// ID is the decision id the outcome must quote.
	ID string `json:"id"`
	// Area/Engine key the accumulator the outcome streams into. Engine
	// is the canonical pinned spec ("constrained@v1").
	Area   string `json:"area"`
	Engine string `json:"engine"`
	// Params are the resolved engine parameters (forensics only).
	Params map[string]float64 `json:"params,omitempty"`
	// B is the effective break-even interval; ThresholdSec the threshold
	// the engine actually drew for this stop.
	B            float64 `json:"b"`
	ThresholdSec float64 `json:"threshold_sec"`
	// Bound is the engine's published worst-case CR for the strategy
	// that made the decision (0 = no bound published).
	Bound float64 `json:"bound,omitempty"`
	// IssuedUnixMS is the issue wall time (drives TTL expiry and the
	// join-latency measurement).
	IssuedUnixMS int64 `json:"issued_unix_ms"`
}

// Validate checks the entry is one the ledger accepts: an id, an area
// and engine, a positive finite break-even interval, and a finite
// non-negative threshold, bound and issue time.
func (p Pending) Validate() error {
	if p.ID == "" {
		return fmt.Errorf("ledger: pending entry has empty id")
	}
	if p.Area == "" || p.Engine == "" {
		return fmt.Errorf("ledger: pending %s has empty area or engine", p.ID)
	}
	if !(p.B > 0) || math.IsInf(p.B, 0) {
		return fmt.Errorf("ledger: pending %s has break-even %v", p.ID, p.B)
	}
	if p.ThresholdSec < 0 || math.IsNaN(p.ThresholdSec) || math.IsInf(p.ThresholdSec, 0) {
		return fmt.Errorf("ledger: pending %s has threshold %v", p.ID, p.ThresholdSec)
	}
	if p.Bound < 0 || math.IsNaN(p.Bound) || math.IsInf(p.Bound, 0) {
		return fmt.Errorf("ledger: pending %s has bound %v", p.ID, p.Bound)
	}
	if p.IssuedUnixMS < 0 {
		return fmt.Errorf("ledger: pending %s has negative issue time", p.ID)
	}
	return nil
}

// Key identifies one accumulator.
type Key struct {
	Area   string
	Engine string
}

// less orders keys by area, then engine: the order of the CR table.
func (k Key) less(o Key) bool {
	if k.Area != o.Area {
		return k.Area < o.Area
	}
	return k.Engine < o.Engine
}

// Outcome reports one successful settle.
type Outcome struct {
	// Pending is the entry that settled.
	Pending Pending
	// Online and Opt are the realized costs (eq. 3 and eq. 2).
	Online float64
	Opt    float64
	// JoinMS is the decide-to-observe join latency in milliseconds.
	JoinMS int64
	// CR and Band are the accumulator's empirical CR and variance-band
	// half-width after this settle.
	CR   float64
	Band float64
	// Breach reports that this settle completed a Patience-long run of
	// violating windows and tripped the breach detector.
	Breach bool
}

// Counters are the ledger's monotone event counts.
type Counters struct {
	// Issued counts decisions entered into the pending table; Settled
	// those joined to an outcome.
	Issued  uint64 `json:"issued"`
	Settled uint64 `json:"settled"`
	// Orphaned counts settles quoting an unknown decision id; Expired
	// counts pending entries dropped by TTL or capacity eviction.
	Orphaned uint64 `json:"orphaned"`
	Expired  uint64 `json:"expired"`
	// Breaches counts breach-detector trips across all accumulators.
	Breaches uint64 `json:"breaches"`
}

// accum is one {area, engine} empirical-CR accumulator: forgetting-
// weighted first and second moments of the (online, opt) pairs plus
// the breach-detector state.
type accum struct {
	w, w2                float64 // weight sum and squared-weight sum
	sumOn, sumOp         float64
	sumOn2, sumOp2, sumX float64
	count                uint64
	bound                float64
	windowCount          int
	streak               int
	breaches             uint64
}

// add folds one settled pair in under forgetting factor g.
func (a *accum) add(g, online, opt float64) {
	a.w = g*a.w + 1
	a.w2 = g*g*a.w2 + 1
	a.sumOn = g*a.sumOn + online
	a.sumOp = g*a.sumOp + opt
	a.sumOn2 = g*a.sumOn2 + online*online
	a.sumOp2 = g*a.sumOp2 + opt*opt
	a.sumX = g*a.sumX + online*opt
	a.count++
}

// state is the serialized form of the accumulator under key k.
func (a *accum) state(k Key) AccumState {
	return AccumState{
		Area: k.Area, Engine: k.Engine,
		W: a.w, W2: a.w2,
		SumOn: a.sumOn, SumOp: a.sumOp,
		SumOn2: a.sumOn2, SumOp2: a.sumOp2, SumX: a.sumX,
		Count: a.count, Bound: a.bound,
		Windows: a.windowCount, Streak: a.streak, Breaches: a.breaches,
	}
}

// ratio returns the empirical CR (ratio of weighted means) and the
// delta-method variance-band half-width z·sqrt(Var[CR]), under the
// package's finiteness rule: a CR float64 cannot hold reads as
// math.MaxFloat64, and a band it cannot hold reads as +Inf, not
// estimable.
func (a *accum) ratio(z float64) (cr, band float64) {
	if a.w <= 0 || a.sumOp <= 0 {
		return 0, 0
	}
	meanOn := a.sumOn / a.w
	meanOp := a.sumOp / a.w
	if meanOp <= 0 || meanOn <= 0 {
		return 0, 0
	}
	cr = meanOn / meanOp
	if math.IsInf(cr, 1) || math.IsNaN(cr) {
		return math.MaxFloat64, math.Inf(1)
	}
	neff := a.w * a.w / a.w2
	if neff <= 1 {
		return cr, math.Inf(1)
	}
	varOn := math.Max(0, a.sumOn2/a.w-meanOn*meanOn)
	varOp := math.Max(0, a.sumOp2/a.w-meanOp*meanOp)
	cov := a.sumX/a.w - meanOn*meanOp
	rel := varOn/(meanOn*meanOn) + varOp/(meanOp*meanOp) - 2*cov/(meanOn*meanOp)
	v := cr * cr * math.Max(0, rel) / neff
	if band = z * math.Sqrt(v); math.IsNaN(band) {
		band = math.Inf(1)
	}
	return cr, band
}

// Ledger is the decision-outcome join plane. Pending decisions live
// in one table: an id-keyed map plus the issue-ordered id list that
// FIFO eviction and expiry walk. Settled ids move into a bounded ring
// so a duplicate settle is distinguishable from an unknown one. The
// table, the ring, the accumulators and the counters share one mutex,
// so a settle moves an id from the table to the ring and its outcome
// into an accumulator in one step, and State is one consistent cut.
type Ledger struct {
	cfg Config

	mu       sync.Mutex
	entries  map[string]Pending
	order    []string // issue order; may contain ids no longer in entries
	head     int
	done     map[string]bool // the ids in ring
	ring     []string        // settled-id ring, oldest first
	accums   map[Key]*accum
	counters Counters
}

// New builds a ledger.
func New(cfg Config) *Ledger {
	return &Ledger{
		cfg:     cfg.withDefaults(),
		entries: make(map[string]Pending),
		done:    make(map[string]bool),
		accums:  make(map[Key]*accum),
	}
}

// Issue enters one decision into the pending table. It returns the
// number of entries the insert evicted (TTL-expired heads plus any
// capacity eviction), already counted into Counters.Expired.
func (l *Ledger) Issue(p Pending) (int, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.entries[p.ID]; dup {
		return 0, fmt.Errorf("ledger: duplicate issue of decision %s", p.ID)
	}
	l.entries[p.ID] = p
	l.order = append(l.order, p.ID)
	l.counters.Issued++
	return l.expireLocked(p.IssuedUnixMS-l.cfg.TTLMS, l.cfg.Capacity), nil
}

// expireLocked drops pending entries issued at or before cutoffMS and,
// when capacity > 0, evicts oldest entries until the table fits,
// counting each as expired. It also compacts the consumed head of the
// order list.
func (l *Ledger) expireLocked(cutoffMS int64, capacity int) int {
	evicted := 0
	for l.head < len(l.order) {
		id := l.order[l.head]
		p, live := l.entries[id]
		if !live {
			l.head++ // settled or already evicted; skip the stale slot
			continue
		}
		if p.IssuedUnixMS <= cutoffMS || (capacity > 0 && len(l.entries) > capacity) {
			delete(l.entries, id)
			l.head++
			evicted++
			continue
		}
		break
	}
	if l.head > 0 && l.head*2 >= len(l.order) {
		l.order = append(l.order[:0], l.order[l.head:]...)
		l.head = 0
	}
	l.counters.Expired += uint64(evicted)
	return evicted
}

// rememberSettledLocked records a settled id in the bounded
// duplicate-detection ring.
func (l *Ledger) rememberSettledLocked(id string) {
	l.done[id] = true
	l.ring = append(l.ring, id)
	for len(l.ring) > l.cfg.Capacity {
		delete(l.done, l.ring[0])
		l.ring = l.ring[1:]
	}
}

// Settle joins one outcome to its pending decision: the entry is
// removed, the realized costs computed, and the {area, engine}
// accumulator advanced. An id that was never issued (or was expired or
// evicted) is ErrUnknownDecision; an id that already settled is
// ErrDuplicateSettle. Both failure modes leave all state untouched
// beyond the orphan counter; a stop whose costs the accumulator cannot
// hold (its next state would not validate: a running sum would leave
// float64's range) leaves the entry pending, so the ledger's state
// always validates.
func (l *Ledger) Settle(id string, stopSec float64, nowMS int64) (Outcome, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if id == "" {
		l.counters.Orphaned++
		return Outcome{}, fmt.Errorf("%w: empty decision id", ErrUnknownDecision)
	}
	if stopSec < 0 || math.IsNaN(stopSec) || math.IsInf(stopSec, 0) {
		return Outcome{}, fmt.Errorf("ledger: stop %v is not finite non-negative", stopSec)
	}
	p, ok := l.entries[id]
	if !ok {
		if l.done[id] {
			return Outcome{}, fmt.Errorf("%w: decision %s already settled", ErrDuplicateSettle, id)
		}
		l.counters.Orphaned++
		return Outcome{}, fmt.Errorf("%w: decision %s is not pending", ErrUnknownDecision, id)
	}
	if nowMS-p.IssuedUnixMS > l.cfg.TTLMS {
		// Settle-after-expiry: the entry outlived its join window; drop
		// it now and report the settle as unknown.
		delete(l.entries, id)
		l.counters.Expired++
		l.counters.Orphaned++
		return Outcome{}, fmt.Errorf("%w: decision %s expired before settling", ErrUnknownDecision, id)
	}
	online := skirental.OnlineCost(p.ThresholdSec, stopSec, p.B)
	opt := skirental.OfflineCost(stopSec, p.B)
	key := Key{Area: p.Area, Engine: p.Engine}
	a := l.accums[key]
	var next accum
	if a != nil {
		next = *a
	}
	next.add(l.cfg.Forgetting, online, opt)
	if err := next.state(key).validate(); err != nil {
		// The threshold plus the restart, or a square or running sum of
		// the costs, leaves float64's range at a break-even interval
		// near its limit; the entry stays pending.
		return Outcome{}, fmt.Errorf("ledger: stop %v cannot settle decision %s: %w", stopSec, id, err)
	}
	delete(l.entries, id)
	l.rememberSettledLocked(id)
	if a == nil {
		a = &accum{}
		l.accums[key] = a
	}
	*a = next

	// A clock stepped back, or an entry restored from a host whose
	// clock ran ahead, can settle "before" its issue; the join latency
	// floors at zero rather than going negative.
	out := Outcome{Pending: p, Online: online, Opt: opt, JoinMS: max(0, nowMS-p.IssuedUnixMS)}
	if p.Bound > 0 {
		a.bound = p.Bound // latest published bound wins
	}
	out.CR, out.Band = a.ratio(l.cfg.Band)
	a.windowCount++
	if a.windowCount >= l.cfg.Window {
		a.windowCount = 0
		// A window violates when the bound sits below the entire
		// variance band — the empirical CR is confidently above the
		// guarantee, not merely straddling it.
		if a.bound > 0 && !math.IsInf(out.Band, 1) && out.CR-out.Band > a.bound {
			a.streak++
			if a.streak >= l.cfg.Patience {
				a.streak = 0
				a.breaches++
				l.counters.Breaches++
				out.Breach = true
			}
		} else {
			a.streak = 0
		}
	}
	l.counters.Settled++
	return out, nil
}

// ExpireBefore sweeps the pending table, dropping entries whose join
// window ended before nowMS. It returns the number dropped.
func (l *Ledger) ExpireBefore(nowMS int64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.expireLocked(nowMS-l.cfg.TTLMS, 0)
}

// PendingCount returns the live pending-entry count.
func (l *Ledger) PendingCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Counters returns the monotone event counts.
func (l *Ledger) Counters() Counters {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counters
}

// Row is one {area, engine} line of the CR table.
type Row struct {
	Area   string `json:"area"`
	Engine string `json:"engine"`
	// Settled counts outcomes folded into this accumulator.
	Settled uint64 `json:"settled"`
	// CR is the empirical competitive ratio (ratio of forgetting-
	// weighted means); Band the variance-band half-width around it.
	// Band is -1 while the band is not yet estimable (fewer than two
	// effective samples; the in-memory half-width is +Inf, which JSON
	// cannot carry).
	CR   float64 `json:"cr"`
	Band float64 `json:"band"`
	// Bound is the engine's published worst-case CR (0 = none);
	// Breaches counts detector trips on this key.
	Bound    float64 `json:"bound,omitempty"`
	Breaches uint64  `json:"breaches,omitempty"`
	// MeanOnline and MeanOpt are the weighted mean realized costs.
	MeanOnline float64 `json:"mean_online"`
	MeanOpt    float64 `json:"mean_opt"`
}

// Rows renders the CR table, sorted by (area, engine).
func (l *Ledger) Rows() []Row {
	l.mu.Lock()
	rows := make([]Row, 0, len(l.accums))
	for key, a := range l.accums {
		cr, band := a.ratio(l.cfg.Band)
		if math.IsInf(band, 1) {
			band = -1
		}
		r := Row{
			Area: key.Area, Engine: key.Engine,
			Settled: a.count, CR: cr, Band: band,
			Bound: a.bound, Breaches: a.breaches,
		}
		if a.w > 0 {
			r.MeanOnline = a.sumOn / a.w
			r.MeanOpt = a.sumOp / a.w
		}
		rows = append(rows, r)
	}
	l.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool {
		return Key{rows[i].Area, rows[i].Engine}.less(Key{rows[j].Area, rows[j].Engine})
	})
	return rows
}

// Worst returns the row with the highest empirical CR (false when no
// outcome has settled yet).
func (l *Ledger) Worst() (Row, bool) {
	var worst Row
	found := false
	for _, r := range l.Rows() {
		if !found || r.CR > worst.CR {
			worst, found = r, true
		}
	}
	return worst, found
}

// AccumState is the serialized form of one accumulator.
type AccumState struct {
	Area    string  `json:"area"`
	Engine  string  `json:"engine"`
	W       float64 `json:"w"`
	W2      float64 `json:"w2"`
	SumOn   float64 `json:"sum_online"`
	SumOp   float64 `json:"sum_opt"`
	SumOn2  float64 `json:"sum_online2"`
	SumOp2  float64 `json:"sum_opt2"`
	SumX    float64 `json:"sum_cross"`
	Count   uint64  `json:"count"`
	Bound   float64 `json:"bound,omitempty"`
	Windows int     `json:"window_count,omitempty"`
	Streak  int     `json:"streak,omitempty"`
	// Breaches counts detector trips on this key.
	Breaches uint64 `json:"breaches,omitempty"`
}

func (a AccumState) validate() error {
	if a.Area == "" || a.Engine == "" {
		return fmt.Errorf("ledger: accumulator with empty area or engine")
	}
	for _, v := range []float64{a.W, a.W2, a.SumOn, a.SumOp, a.SumOn2, a.SumOp2, a.Bound} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("ledger: accumulator %s/%s has non-finite or negative moment", a.Area, a.Engine)
		}
	}
	if math.IsNaN(a.SumX) || math.IsInf(a.SumX, 0) {
		return fmt.Errorf("ledger: accumulator %s/%s has non-finite cross moment", a.Area, a.Engine)
	}
	// An accumulator exists once an outcome settles into it, and every
	// settle leaves the weight at one or more (w = g·w + 1), which keeps
	// each mean cost, a running sum over the weight, finite.
	if a.W < 1 {
		return fmt.Errorf("ledger: accumulator %s/%s has weight %v below one", a.Area, a.Engine, a.W)
	}
	if a.Windows < 0 || a.Streak < 0 {
		return fmt.Errorf("ledger: accumulator %s/%s has negative detector state", a.Area, a.Engine)
	}
	return nil
}

// State is the ledger's complete serializable state: pending entries
// in issue order, the settled-id ring oldest first, the accumulators
// sorted by key, and the counters. Capturing, restoring, and capturing
// again yields byte-identical JSON.
type State struct {
	Pending []Pending    `json:"pending,omitempty"`
	Settled []string     `json:"settled_ids,omitempty"`
	Accums  []AccumState `json:"accums,omitempty"`
	Counters
}

// Empty reports a state with nothing worth persisting (all-zero
// counters included), so snapshots of a ledger-idle daemon can omit
// the ledger section entirely.
func (s State) Empty() bool {
	return len(s.Pending) == 0 && len(s.Settled) == 0 && len(s.Accums) == 0 && s.Counters == Counters{}
}

// Validate checks a state is restorable.
func (s State) Validate() error {
	seen := make(map[string]bool, len(s.Pending))
	for _, p := range s.Pending {
		if err := p.Validate(); err != nil {
			return err
		}
		if seen[p.ID] {
			return fmt.Errorf("ledger: duplicate pending id %s", p.ID)
		}
		seen[p.ID] = true
	}
	for _, id := range s.Settled {
		if id == "" {
			return fmt.Errorf("ledger: empty settled id")
		}
	}
	keys := make(map[Key]bool, len(s.Accums))
	for _, a := range s.Accums {
		if err := a.validate(); err != nil {
			return err
		}
		k := Key{Area: a.Area, Engine: a.Engine}
		if keys[k] {
			return fmt.Errorf("ledger: duplicate accumulator %s/%s", a.Area, a.Engine)
		}
		keys[k] = true
	}
	return nil
}

// State captures the full ledger state, pending entries in the order
// they were issued. The capture is one cut: it holds no settle half
// applied, so an id it lists as settled has its outcome counted in an
// accumulator and in the counters.
func (l *Ledger) State() State {
	var st State
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, id := range l.order[l.head:] {
		if p, live := l.entries[id]; live {
			st.Pending = append(st.Pending, p)
		}
	}
	st.Settled = append(st.Settled, l.ring...)
	keys := make([]Key, 0, len(l.accums))
	for k := range l.accums {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	for _, k := range keys {
		st.Accums = append(st.Accums, l.accums[k].state(k))
	}
	st.Counters = l.counters
	return st
}

// Restore replaces the ledger's state wholesale with a validated
// capture (all-or-nothing: a validation failure leaves the current
// state untouched).
func (l *Ledger) Restore(st State) error {
	if err := st.Validate(); err != nil {
		return err
	}
	fresh := New(l.cfg)
	for _, p := range st.Pending {
		fresh.entries[p.ID] = p
		fresh.order = append(fresh.order, p.ID)
	}
	for _, id := range st.Settled {
		fresh.rememberSettledLocked(id)
	}
	for _, a := range st.Accums {
		fresh.accums[Key{Area: a.Area, Engine: a.Engine}] = &accum{
			w: a.W, w2: a.W2,
			sumOn: a.SumOn, sumOp: a.SumOp,
			sumOn2: a.SumOn2, sumOp2: a.SumOp2, sumX: a.SumX,
			count: a.Count, bound: a.Bound,
			windowCount: a.Windows, streak: a.Streak, breaches: a.Breaches,
		}
	}
	// Swap the rebuilt internals in under the lock so concurrent
	// readers never observe a half-restored ledger.
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries, l.order, l.head = fresh.entries, fresh.order, fresh.head
	l.done, l.ring = fresh.done, fresh.ring
	l.accums = fresh.accums
	l.counters = st.Counters
	return nil
}
