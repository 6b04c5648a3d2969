package server

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"idlereduce/internal/obs"
	"idlereduce/internal/policy"
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
// pre-formatted attribution metric names (decide_area_ms{area=...} /
// decide_area_total{...}) built once so the decide hot path never
// formats labels. Records are immutable; a stats update builds a fresh
// one.
type areaRec struct {
	state     AreaState
	version   uint64
	latMetric string
	cntMetric string
}

// newAreaRec validates and normalizes one area state.
func newAreaRec(state AreaState, version uint64) (*areaRec, error) {
	state.ID = strings.ToLower(strings.TrimSpace(state.ID))
	if err := state.Validate(); err != nil {
		return nil, err
	}
	return &areaRec{
		state:     state,
		version:   version,
		latMetric: obs.L("decide_area_ms", "area", state.ID),
		cntMetric: obs.L("decide_area_total", "area", state.ID),
	}, nil
}

// Key identifies one cache entry: the area, the policy engine, and the
// fingerprint of the engine parameters the strategy was prepared with
// (today the effective break-even interval). Distinct engines — and
// distinct parameterizations of one engine — never collide.
type Key struct {
	Area   string
	Engine string
	Params uint64
}

// paramsHash fingerprints the engine parameters of a prepared
// strategy: the effective break-even interval plus the resolved tuning
// map, hashed in sorted key order. Floats are hashed by bit pattern,
// so semantically different values (including negative zero vs zero)
// never alias; a nil map (the default parameterization) hashes
// differently from any explicit map, which at worst caches a default
// strategy twice, never serves the wrong one.
func paramsHash(b float64, params map[string]float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(b))
	h.Write(buf[:])
	if len(params) > 0 {
		names := make([]string, 0, len(params))
		for n := range params {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			h.Write([]byte(n))
			h.Write([]byte{0})
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(params[n]))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// areaHash places an area on its shard: FNV-1a over the normalized ID.
// The placement is a pure function of the ID, so a snapshot taken with
// one shard count restores correctly under any other.
func areaHash(id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return h.Sum64()
}

// strategy is one immutable cache entry: the area record plus the
// engine-prepared policy. Entries are never mutated after
// construction; updates build fresh entries and swap their shard's
// snapshot.
type strategy struct {
	rec  *areaRec
	eng  policy.Engine
	prep policy.Strategy
	// params are the resolved engine parameters this entry was prepared
	// with; nil for the default parameterization.
	params map[string]float64
}

// key returns the entry's cache key.
func (s *strategy) key() Key {
	return Key{Area: s.rec.state.ID, Engine: s.eng.Name(), Params: paramsHash(s.rec.state.B, s.params)}
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

// snapshot is one immutable generation of ONE shard: the shard's area
// records plus the prepared per-engine strategies of those areas.
type snapshot struct {
	areas   map[string]*areaRec
	entries map[Key]*strategy
}

// shard is one independently-published slice of the cache keyspace.
// Readers load the shard's snapshot with a single atomic pointer load;
// writers serialize on the shard mutex and publish copy-on-write, so a
// stats update or lazy engine fill on one shard never blocks decides —
// or concurrent updates — on any other shard.
type shard struct {
	mu   sync.Mutex
	snap atomic.Pointer[snapshot]
	// hitMetric / missMetric are the pre-formatted per-shard cache
	// counters (decide_shard_hits_total{shard=N} and the miss twin), so
	// per-shard hit-rate attribution costs the hot path no formatting.
	hitMetric  string
	missMetric string
}

// DefaultShards is the shard count used when Config.Shards is unset:
// enough to keep stats updates and lazy fills from contending at
// million-vehicle area counts, small enough that a full listing stays
// cheap.
const DefaultShards = 16

// Cache is the read-mostly strategy cache, keyed {area, engine,
// params-hash} and sharded by area hash. Reads are a single atomic
// pointer load on the owning shard plus map lookups — no locks on the
// decide path, and no cross-shard coordination anywhere: each shard
// has its own writer mutex and its own copy-on-write snapshot chain,
// so there is no global swap and a re-tune storm on one shard leaves
// the other shards' decide latency untouched. Readers holding an old
// shard snapshot keep a consistent view of that shard.
//
// Entries for the eager engines (the registry default plus the
// daemon's serving default) are prepared at boot and on every stats
// update, so a misconfigured server never starts and default-path
// requests never pay a prepare. Other engines fill in lazily on first
// use and are invalidated by stats updates.
type Cache struct {
	shards []*shard
	mask   uint64
	eager  []policy.Engine
}

// NewCache builds the cache from the boot-time area states with the
// default shard count; see NewShardedCache.
func NewCache(areas []AreaState, eager []policy.Engine) (*Cache, error) {
	return NewShardedCache(areas, eager, 0)
}

// NewShardedCache builds the cache from the boot-time area states,
// preparing every eager engine for every area. Duplicate IDs (after
// lowercasing) are rejected. The registry default engine is always
// eager. shards is rounded up to a power of two (0 = DefaultShards);
// the shard count is invisible on the wire — decisions are
// byte-identical for every value.
func NewShardedCache(areas []AreaState, eager []policy.Engine, shards int) (*Cache, error) {
	recs := make([]*areaRec, 0, len(areas))
	seen := make(map[string]bool, len(areas))
	for _, a := range areas {
		rec, err := newAreaRec(a, 1)
		if err != nil {
			return nil, err
		}
		if seen[rec.state.ID] {
			return nil, fmt.Errorf("server: duplicate area id %q", rec.state.ID)
		}
		seen[rec.state.ID] = true
		recs = append(recs, rec)
	}
	return newCacheFromRecs(recs, eager, shards)
}

// newCacheFromRecs builds and publishes the shard snapshots from
// validated, deduplicated area records (the shared tail of boot and
// snapshot restore; recs carry their own versions).
func newCacheFromRecs(recs []*areaRec, eager []policy.Engine, shards int) (*Cache, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("server: no areas configured")
	}
	n := shardCount(shards)
	def, _ := policy.Get(policy.DefaultEngine)
	engines := []policy.Engine{def}
	for _, e := range eager {
		if e != nil && e.Name() != policy.DefaultEngine {
			engines = append(engines, e)
		}
	}
	c := &Cache{shards: make([]*shard, n), mask: uint64(n - 1), eager: engines}
	snaps := make([]*snapshot, n)
	for i := range c.shards {
		c.shards[i] = &shard{
			hitMetric:  obs.L("decide_shard_hits_total", "shard", strconv.Itoa(i)),
			missMetric: obs.L("decide_shard_misses_total", "shard", strconv.Itoa(i)),
		}
		snaps[i] = &snapshot{areas: make(map[string]*areaRec), entries: make(map[Key]*strategy)}
	}
	for _, rec := range recs {
		sn := snaps[areaHash(rec.state.ID)&c.mask]
		sn.areas[rec.state.ID] = rec
		for _, eng := range engines {
			st, err := prepare(rec, eng, nil)
			if err != nil {
				return nil, err
			}
			sn.entries[st.key()] = st
		}
	}
	for i, sh := range c.shards {
		sh.snap.Store(snaps[i])
	}
	return c, nil
}

// shardCount normalizes a requested shard count to a power of two.
func shardCount(n int) int {
	if n <= 0 {
		n = DefaultShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Shards returns the shard count.
func (c *Cache) Shards() int { return len(c.shards) }

// shardFor returns the shard owning a normalized area ID.
func (c *Cache) shardFor(id string) *shard {
	return c.shards[areaHash(id)&c.mask]
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

// Area returns the current record of an area (case-insensitive).
func (c *Cache) Area(id string) (*areaRec, bool) {
	key := strings.ToLower(strings.TrimSpace(id))
	rec, ok := c.shardFor(key).snap.Load().areas[key]
	return rec, ok
}

// Get returns an area's default-engine strategy (the legacy lookup
// surface; always present for configured areas).
func (c *Cache) Get(id string) (*strategy, bool) {
	key := strings.ToLower(strings.TrimSpace(id))
	sn := c.shardFor(key).snap.Load()
	rec, ok := sn.areas[key]
	if !ok {
		return nil, false
	}
	st, ok := sn.entries[Key{Area: rec.state.ID, Engine: policy.DefaultEngine, Params: paramsHash(rec.state.B, nil)}]
	return st, ok
}

// StrategyParams returns the prepared strategy of (area, engine) at the
// area's default break-even interval, with resolved engine parameters
// (nil = defaults) in the cache key. The default parameterization of
// the eager engines always hits; anything else prepares lazily on
// first use, publishes copy-on-write on its shard, hits from then on,
// and is invalidated like any lazy entry when the area's statistics
// change. An engine that cannot serve the area's statistics returns
// the prepare error (wrapping policy.ErrInfeasible) without caching
// the failure.
func (c *Cache) StrategyParams(rec *areaRec, eng policy.Engine, params map[string]float64) (*strategy, error) {
	sh := c.shardFor(rec.state.ID)
	key := Key{Area: rec.state.ID, Engine: eng.Name(), Params: paramsHash(rec.state.B, params)}
	if st, ok := sh.snap.Load().entries[key]; ok && st.rec == rec {
		return st, nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sn := sh.snap.Load()
	// Re-check under the lock; another request may have prepared it,
	// and the area may have been re-stated since the caller's lookup.
	cur, ok := sn.areas[rec.state.ID]
	if !ok {
		return nil, fmt.Errorf("server: unknown area %q", rec.state.ID)
	}
	key.Params = paramsHash(cur.state.B, params)
	if st, ok := sn.entries[key]; ok && st.rec == cur {
		return st, nil
	}
	st, err := prepare(cur, eng, params)
	if err != nil {
		return nil, err
	}
	next := &snapshot{areas: sn.areas, entries: make(map[Key]*strategy, len(sn.entries)+1)}
	for k, v := range sn.entries {
		next.entries[k] = v
	}
	next.entries[st.key()] = st
	sh.snap.Store(next)
	return st, nil
}

// Update swaps in new statistics for an existing area. b <= 0 keeps
// the area's current break-even interval. Every eager engine is
// re-prepared and validated before publication — a stats update that
// any serving-default engine cannot serve is rejected whole — and
// lazily-cached entries of other engines are dropped so they rebuild
// against the new statistics on next use. Only the area's own shard
// is locked and re-published; every other shard keeps serving its
// current snapshot untouched. Returns the area's new default-engine
// strategy.
func (c *Cache) Update(id string, b float64, s skirental.Stats) (*strategy, error) {
	key := strings.ToLower(strings.TrimSpace(id))
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sn := sh.snap.Load()
	prev, ok := sn.areas[key]
	if !ok {
		return nil, fmt.Errorf("server: unknown area %q", id)
	}
	if b <= 0 || math.IsNaN(b) {
		b = prev.state.B
	}
	state := AreaState{ID: key, B: b, Mu: s.MuBMinus, Q: s.QBPlus}
	if err := state.Validate(); err != nil {
		return nil, err
	}
	// The ID is unchanged, so the previous record's pre-formatted
	// metric labels carry over instead of being re-rendered.
	rec := &areaRec{
		state:     state,
		version:   prev.version + 1,
		latMetric: prev.latMetric,
		cntMetric: prev.cntMetric,
	}
	def, fresh, err := c.prepareEager(rec)
	if err != nil {
		return nil, err
	}
	sh.snap.Store(replaceArea(sn, rec, fresh))
	return def, nil
}

// prepareEager prepares every eager engine against a fresh record,
// returning the default-engine entry and the full set.
func (c *Cache) prepareEager(rec *areaRec) (*strategy, []*strategy, error) {
	fresh := make([]*strategy, 0, len(c.eager))
	var def *strategy
	for _, eng := range c.eager {
		st, err := prepare(rec, eng, nil)
		if err != nil {
			return nil, nil, err
		}
		if eng.Name() == policy.DefaultEngine {
			def = st
		}
		fresh = append(fresh, st)
	}
	return def, fresh, nil
}

// replaceArea builds a shard snapshot with one area's record and eager
// entries replaced and its lazy entries dropped.
func replaceArea(sn *snapshot, rec *areaRec, fresh []*strategy) *snapshot {
	next := &snapshot{
		areas:   make(map[string]*areaRec, len(sn.areas)),
		entries: make(map[Key]*strategy, len(sn.entries)),
	}
	for k, v := range sn.areas {
		next.areas[k] = v
	}
	next.areas[rec.state.ID] = rec
	for k, v := range sn.entries {
		if k.Area != rec.state.ID {
			next.entries[k] = v
		}
	}
	for _, st := range fresh {
		next.entries[st.key()] = st
	}
	return next
}

// Restore atomically replaces the state of existing areas from a
// snapshot: for each entry the record (state AND statistics version)
// is rebuilt, eager engines are re-prepared, and the owning shard is
// re-published copy-on-write. All entries are validated and prepared
// before any shard is touched, so a bad snapshot changes nothing.
// Entries naming unknown areas are rejected: the serving area set is
// fixed at boot. Each shard swaps atomically; concurrent decides on
// other shards are never blocked.
func (c *Cache) Restore(entries []AreaSnapshot) error {
	type staged struct {
		rec   *areaRec
		fresh []*strategy
	}
	byShard := make(map[*shard][]staged)
	seen := make(map[string]bool, len(entries))
	for _, e := range entries {
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
		if _, ok := c.Area(rec.state.ID); !ok {
			return fmt.Errorf("server: restore: unknown area %q (the serving set is fixed at boot)", rec.state.ID)
		}
		_, fresh, err := c.prepareEager(rec)
		if err != nil {
			return err
		}
		sh := c.shardFor(rec.state.ID)
		byShard[sh] = append(byShard[sh], staged{rec: rec, fresh: fresh})
	}
	for sh, batch := range byShard {
		sh.mu.Lock()
		sn := sh.snap.Load()
		for _, st := range batch {
			sn = replaceArea(sn, st.rec, st.fresh)
		}
		sh.snap.Store(sn)
		sh.mu.Unlock()
	}
	return nil
}

// Areas returns every area record sorted by ID.
func (c *Cache) Areas() []*areaRec {
	var out []*areaRec
	for _, sh := range c.shards {
		for _, rec := range sh.snap.Load().areas {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].state.ID < out[j].state.ID })
	return out
}

// List returns every area's default-engine strategy sorted by ID.
func (c *Cache) List() []*strategy {
	recs := c.Areas()
	out := make([]*strategy, 0, len(recs))
	for _, rec := range recs {
		if st, ok := c.Get(rec.state.ID); ok {
			out = append(out, st)
		}
	}
	return out
}

// Len returns the number of configured areas.
func (c *Cache) Len() int {
	n := 0
	for _, sh := range c.shards {
		n += len(sh.snap.Load().areas)
	}
	return n
}
