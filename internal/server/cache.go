package server

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"idlereduce/internal/adaptive"
	"idlereduce/internal/obs"
	"idlereduce/internal/policy"
	"idlereduce/internal/predict"
	"idlereduce/internal/skirental"
)

// AreaState is the serving configuration of one statistics area: the
// break-even interval B and the constrained pair (mu_B-, q_B+) every
// policy engine derives its strategy from. It is what the -areas
// config file holds and what a stats update replaces.
type AreaState struct {
	// ID is the lookup key (case-insensitive, stored lowercase).
	ID string `json:"id"`
	// B is the area's default break-even interval in seconds.
	B float64 `json:"b"`
	// Mu is mu_B- (partial expectation of stops <= B, seconds).
	Mu float64 `json:"mu"`
	// Q is q_B+ (probability of a stop longer than B).
	Q float64 `json:"q"`
}

// Stats returns the skirental view of the pair.
func (a AreaState) Stats() skirental.Stats {
	return skirental.Stats{MuBMinus: a.Mu, QBPlus: a.Q}
}

// PolicyStats returns the engine view of the area at break-even b
// (b <= 0 means the area default).
func (a AreaState) PolicyStats(b float64) policy.Stats {
	if b <= 0 {
		b = a.B
	}
	return policy.Stats{B: b, Mu: a.Mu, Q: a.Q}
}

// Validate checks the state is servable: non-empty ID and a feasible
// (B, mu, q) triple.
func (a AreaState) Validate() error {
	if strings.TrimSpace(a.ID) == "" {
		return fmt.Errorf("server: area id empty")
	}
	if err := a.Stats().Validate(a.B); err != nil {
		return fmt.Errorf("server: area %s: %w", a.ID, err)
	}
	return nil
}

// areaRec is the per-area serving record shared by every engine's
// cache entries: the current state, its statistics version, and the
// area's attribution series. Records are immutable; a stats update
// builds a fresh one that keeps the area's series.
type areaRec struct {
	state   AreaState
	version uint64
	metrics *areaMetrics
}

// areaMetrics are an area's labelled series: the attribution pair
// decide_area_total and decide_area_ms{area=...}, and the forecast
// error predict_err_abs_sec{area=...}. Each is resolved on its first
// use, so the decide and observe paths never format labels and boot
// formats none for 100k areas; records of one area share them.
type areaMetrics struct {
	cnt     obs.Lazy[obs.Counter]
	lat     obs.Lazy[obs.Histogram]
	predErr obs.Lazy[obs.Histogram]
}

// record counts one decide of area id that took ms milliseconds.
func (m *areaMetrics) record(reg *obs.Registry, id string, ms float64) {
	m.cnt.Get(func() *obs.Counter { return reg.Counter(obs.L("decide_area_total", "area", id)) }).Inc()
	m.lat.Get(func() *obs.Histogram { return reg.Histogram(obs.L("decide_area_ms", "area", id)) }).Observe(ms)
}

// predictErr returns area id's forecast-error histogram.
func (m *areaMetrics) predictErr(reg *obs.Registry, id string) *obs.Histogram {
	return m.predErr.Get(func() *obs.Histogram { return reg.Histogram(predict.AreaErrAbs(id)) })
}

// newAreaRec validates and normalizes one area state.
func newAreaRec(state AreaState, version uint64) (*areaRec, error) {
	state.ID = strings.ToLower(strings.TrimSpace(state.ID))
	if err := state.Validate(); err != nil {
		return nil, err
	}
	return &areaRec{state: state, version: version, metrics: &areaMetrics{}}, nil
}

// strategy is one immutable cache entry: the area record plus the
// engine-prepared policy. Entries are never mutated after
// construction; updates build fresh entries in a new view.
type strategy struct {
	rec  *areaRec
	eng  policy.Engine
	prep policy.Strategy
	// params are the resolved engine parameters this entry was prepared
	// with; nil for the default parameterization.
	params map[string]float64
}

// Info renders the entry as the wire AreaInfo. The Policy field is set
// only for non-default engines, so the default listing's bytes are
// unchanged from the pre-engine server.
func (s *strategy) Info() AreaInfo {
	d := s.prep.Describe()
	info := AreaInfo{
		ID:            s.rec.state.ID,
		B:             s.rec.state.B,
		Mu:            s.rec.state.Mu,
		Q:             s.rec.state.Q,
		Choice:        d.Choice,
		ThresholdSec:  d.ThresholdSec,
		WorstCaseCost: d.WorstCaseCost,
		WorstCaseCR:   d.WorstCaseCR,
		Version:       s.rec.version,
	}
	if s.eng.Name() != policy.DefaultEngine {
		info.Policy = s.eng.Name()
	}
	return info
}

// prepare builds one cache entry with resolved engine parameters (nil =
// defaults).
func prepare(rec *areaRec, eng policy.Engine, params map[string]float64) (*strategy, error) {
	prep, err := policy.Prepare(eng, rec.state.PolicyStats(0), params)
	if err != nil {
		return nil, fmt.Errorf("server: area %s: engine %s: %w", rec.state.ID, eng.Name(), err)
	}
	return &strategy{rec: rec, eng: eng, prep: prep, params: params}, nil
}

// maxTuned caps the explicitly parameterized strategies one view keeps.
// Default parameterizations are always kept (the registry bounds how
// many engines there are); past the cap a parameterization is prepared
// for its one request and not stored, as a custom-B decide is, so a
// stream of distinct params cannot grow the cache.
const maxTuned = 8

// view is one immutable generation of one area: its record, the eager
// engines' strategies prepared from that record, and the strategies
// filled in lazily since. Every entry was prepared from the view's
// record, so a decide that loads one view serves and records one
// statistics generation.
type view struct {
	rec *areaRec
	// entries holds the eager engines' default strategies first, in
	// Cache.eager order, then the lazy fills.
	entries []*strategy
}

// lookup returns the view's entry for eng with resolved params (nil =
// defaults), or nil.
func (v *view) lookup(eng policy.Engine, params map[string]float64) *strategy {
	name := eng.Name()
	for _, st := range v.entries {
		if st.eng.Name() == name && sameParams(st.params, params) {
			return st
		}
	}
	return nil
}

// tuned counts the view's explicitly parameterized entries.
func (v *view) tuned() int {
	n := 0
	for _, st := range v.entries {
		if st.params != nil {
			n++
		}
	}
	return n
}

// sameParams reports whether two resolved parameterizations are equal
// bit for bit. Nil (the defaults) equals only nil, which at worst keeps
// a default strategy twice, never serves the wrong one.
func sameParams(a, b map[string]float64) bool {
	return (a == nil) == (b == nil) && maps.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// slot is one area's home: its current view and its observation
// stream. Readers of the view take one atomic load. Everything that
// writes the area serializes on mu: a stats update or lazy fill
// publishing a view, and an observe, which holds mu from reading the
// area's record through its stream's transition to the re-tune that
// transition triggers. A reader that needs the record and the stream
// as one pair reads both under mu.
type slot struct {
	mu   sync.Mutex
	view atomic.Pointer[view]
	// tr is the area's observation stream, measured at the break-even
	// interval tr.B(); nil until the area's first observe.
	tr *adaptive.Tracker
}

// Cache is the read-mostly strategy cache: one slot per area. The area
// set is fixed at boot, so the slot table is never written afterwards
// and needs no lock. A read is one map lookup and one atomic load,
// with no lock; a stats update, lazy fill or restore locks only the
// areas it names and copies no other area's data.
//
// The eager engines (the registry default plus the daemon's serving
// default) are prepared into every view at boot and on every stats
// update, so a misconfigured server never starts and default-path
// requests never pay a prepare. Other engines fill in lazily on first
// use and are dropped by the next stats update.
type Cache struct {
	slots map[string]*slot
	// order lists the slots by area ID, sorted at boot.
	order []*slot
	eager []policy.Engine
}

// NewCache builds the cache from the boot-time area states, preparing
// every eager engine for every area. Duplicate IDs (after lowercasing)
// are rejected. The registry default engine is always eager.
func NewCache(areas []AreaState, eager []policy.Engine) (*Cache, error) {
	if len(areas) == 0 {
		return nil, fmt.Errorf("server: no areas configured")
	}
	def, _ := policy.Get(policy.DefaultEngine)
	c := &Cache{
		slots: make(map[string]*slot, len(areas)),
		order: make([]*slot, 0, len(areas)),
		eager: []policy.Engine{def},
	}
	for _, e := range eager {
		if e != nil && e.Name() != policy.DefaultEngine {
			c.eager = append(c.eager, e)
		}
	}
	for _, a := range areas {
		rec, err := newAreaRec(a, 1)
		if err != nil {
			return nil, err
		}
		if _, dup := c.slots[rec.state.ID]; dup {
			return nil, fmt.Errorf("server: duplicate area id %q", rec.state.ID)
		}
		v, err := c.newView(rec)
		if err != nil {
			return nil, err
		}
		sl := &slot{}
		sl.view.Store(v)
		c.slots[rec.state.ID] = sl
		c.order = append(c.order, sl)
	}
	sort.Slice(c.order, func(i, j int) bool {
		return c.order[i].view.Load().rec.state.ID < c.order[j].view.Load().rec.state.ID
	})
	return c, nil
}

// NewShardedCache is NewCache; shards is ignored.
//
// Deprecated: the cache keeps one view per area and has no shards. Use
// NewCache.
func NewShardedCache(areas []AreaState, eager []policy.Engine, shards int) (*Cache, error) {
	return NewCache(areas, eager)
}

// newView prepares every eager engine's default strategy from rec. Any
// failure rejects the view whole.
func (c *Cache) newView(rec *areaRec) (*view, error) {
	v := &view{rec: rec, entries: make([]*strategy, len(c.eager))}
	for i, eng := range c.eager {
		st, err := prepare(rec, eng, nil)
		if err != nil {
			return nil, err
		}
		v.entries[i] = st
	}
	return v, nil
}

// slot returns an area's slot (case-insensitive ID).
func (c *Cache) slot(id string) (*slot, bool) {
	sl, ok := c.slots[strings.ToLower(strings.TrimSpace(id))]
	return sl, ok
}

// view returns an area's current view (case-insensitive ID).
func (c *Cache) view(id string) (*view, bool) {
	sl, ok := c.slot(id)
	if !ok {
		return nil, false
	}
	return sl.view.Load(), true
}

// Get returns an area's default-engine strategy (the legacy lookup
// surface; always present for configured areas).
func (c *Cache) Get(id string) (*strategy, bool) {
	v, ok := c.view(id)
	if !ok {
		return nil, false
	}
	return v.entries[0], true
}

// StrategyParams returns the strategy of eng with resolved params (nil
// = defaults) prepared from the record of v, a view the caller loaded.
// The eager engines' defaults always hit. Anything else is prepared on
// first use and, while v's record is still the area's current one,
// published in a successor view (at most maxTuned explicitly
// parameterized entries), where it hits until the area's statistics
// change. Once they have changed, it is prepared from v's record and
// not stored. A prepare error (wrapping policy.ErrInfeasible when the
// engine cannot serve the statistics) is returned and not cached.
func (c *Cache) StrategyParams(v *view, eng policy.Engine, params map[string]float64) (*strategy, error) {
	if st := v.lookup(eng, params); st != nil {
		return st, nil
	}
	sl := c.slots[v.rec.state.ID]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	cur := sl.view.Load()
	if cur.rec != v.rec {
		return prepare(v.rec, eng, params)
	}
	// Another request may have filled it since v was loaded.
	if st := cur.lookup(eng, params); st != nil {
		return st, nil
	}
	st, err := prepare(cur.rec, eng, params)
	if err != nil {
		return nil, err
	}
	if params == nil || cur.tuned() < maxTuned {
		sl.view.Store(&view{rec: cur.rec, entries: append(slices.Clip(cur.entries), st)})
	}
	return st, nil
}

// Update swaps in new statistics for an existing area. b <= 0 keeps
// the area's current break-even interval. Every eager engine is
// re-prepared and validated before publication — a stats update that
// any serving-default engine cannot serve is rejected whole — and the
// area's lazy entries are dropped so they rebuild against the new
// statistics on next use. Only the area's own slot is locked and
// re-published. Returns the area's new default-engine strategy.
func (c *Cache) Update(id string, b float64, s skirental.Stats) (*strategy, error) {
	sl, ok := c.slot(id)
	if !ok {
		return nil, fmt.Errorf("server: unknown area %q", id)
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return c.updateLocked(sl, b, s)
}

// updateLocked is Update for a caller that holds sl.mu.
func (c *Cache) updateLocked(sl *slot, b float64, s skirental.Stats) (*strategy, error) {
	prev := sl.view.Load().rec
	if b <= 0 || math.IsNaN(b) {
		b = prev.state.B
	}
	state := AreaState{ID: prev.state.ID, B: b, Mu: s.MuBMinus, Q: s.QBPlus}
	if err := state.Validate(); err != nil {
		return nil, err
	}
	// The ID is unchanged, so the area's series carry over.
	v, err := c.newView(&areaRec{state: state, version: prev.version + 1, metrics: prev.metrics})
	if err != nil {
		return nil, err
	}
	sl.view.Store(v)
	return v.entries[0], nil
}

// Restore replaces the state of existing areas from a snapshot: for
// each entry the record (state AND statistics version) is rebuilt, a
// fresh view prepared and the observation stream rebuilt at the
// record's break-even interval under rc (a zero tracker state restores
// to no stream). Every view and stream is built before any is
// published, so a bad snapshot changes nothing. Entries naming unknown
// areas are rejected: the serving area set is fixed at boot. Each
// area's (view, stream) pair swaps under its own slot lock.
func (c *Cache) Restore(entries []AreaSnapshot, rc RetuneConfig) error {
	slots := make([]*slot, len(entries))
	views := make([]*view, len(entries))
	streams := make([]*adaptive.Tracker, len(entries))
	seen := make(map[string]bool, len(entries))
	for i, e := range entries {
		rec, err := newAreaRec(e.AreaState, e.Version)
		if err != nil {
			return err
		}
		if rec.version == 0 {
			return fmt.Errorf("server: restore: area %s has version 0", rec.state.ID)
		}
		if seen[rec.state.ID] {
			return fmt.Errorf("server: restore: duplicate area %q", rec.state.ID)
		}
		seen[rec.state.ID] = true
		sl, ok := c.slots[rec.state.ID]
		if !ok {
			return fmt.Errorf("server: restore: unknown area %q (the serving set is fixed at boot)", rec.state.ID)
		}
		if views[i], err = c.newView(rec); err != nil {
			return err
		}
		if e.Tracker != (adaptive.TrackerState{}) {
			if streams[i], err = rc.newStream(rec.state.B); err == nil {
				err = streams[i].RestoreState(e.Tracker)
			}
			if err != nil {
				return fmt.Errorf("server: restore: area %s: %w", rec.state.ID, err)
			}
		}
		slots[i] = sl
	}
	for i, sl := range slots {
		sl.mu.Lock()
		sl.view.Store(views[i])
		sl.tr = streams[i]
		sl.mu.Unlock()
	}
	return nil
}

// views returns every area's current view in ID order.
func (c *Cache) views() []*view {
	out := make([]*view, len(c.order))
	for i, sl := range c.order {
		out[i] = sl.view.Load()
	}
	return out
}

// snapshot returns every area's record and stream state in ID order,
// each pair read under its slot lock. A stream left at a break-even
// interval the area no longer has restarts on the area's next observe,
// so it snapshots as no stream.
func (c *Cache) snapshot() []AreaSnapshot {
	out := make([]AreaSnapshot, len(c.order))
	for i, sl := range c.order {
		sl.mu.Lock()
		rec := sl.view.Load().rec
		out[i] = AreaSnapshot{AreaState: rec.state, Version: rec.version}
		if sl.tr != nil && sl.tr.B() == rec.state.B {
			out[i].Tracker = sl.tr.State()
		}
		sl.mu.Unlock()
	}
	return out
}

// Len returns the number of configured areas.
func (c *Cache) Len() int { return len(c.order) }
