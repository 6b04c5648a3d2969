package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"idlereduce/internal/policy"
	"idlereduce/internal/skirental"
)

// serveJSON runs one request through h in-process and returns the
// status and body.
func serveJSON(h http.Handler, method, path, body string) (int, []byte) {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
	return w.Code, w.Body.Bytes()
}

// TestDecideRacingStatsUpdateReplays: a decide loads its area's view
// once, so the strategy it draws from and the statistics it records
// are one generation, even while another client flips the area between
// a DET and an N-Rand generation. Every audit record must replay. Two
// in three decides name an engine that is filled lazily, so the fills
// race the updates too.
func TestDecideRacingStatsUpdateReplays(t *testing.T) {
	audit := &syncBuffer{}
	s, err := New(Config{Areas: testAreas(), AuditLog: audit})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	const clients, perClient = 4, 3000
	stop := make(chan struct{})
	updaterDone := make(chan struct{})
	go func() {
		defer close(updaterDone)
		// (8, 0.13) selects DET at B = 28; (4, 0.25) selects N-Rand.
		bodies := []string{`{"mu":4,"q":0.25}`, `{"mu":8,"q":0.13}`}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if status, raw := serveJSON(h, "PUT", "/v1/areas/chicago/stats", bodies[i%2]); status != http.StatusOK {
				t.Errorf("stats update: %d %s", status, raw)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			policies := []string{``, `,"policy":"multislope3"`, `,"policy":"softml","params":{"lambda":0.25}`}
			for i := 0; i < perClient; i++ {
				body := fmt.Sprintf(`{"vehicle_id":"r-%d-%d","area":"chicago","seed":%d%s}`, c, i, i+1, policies[i%3])
				if status, raw := serveJSON(h, "POST", "/v1/decide", body); status != http.StatusOK {
					t.Errorf("decide: %d %s", status, raw)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-updaterDone
	if err := s.auditW.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyAudit(strings.NewReader(audit.String()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records == 0 || rep.Mismatched != 0 || rep.Corrupt != 0 {
		t.Errorf("verify report %+v, want every record matched", rep)
	}
}

// TestTunedStrategiesBounded: explicitly parameterized strategies are
// kept up to maxTuned per area; past that each is prepared for its one
// request, and replies stay those of a server that never saw the
// others.
func TestTunedStrategiesBounded(t *testing.T) {
	s, err := New(Config{Areas: testAreas()})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for i := 0; i < 1000; i++ {
		body := fmt.Sprintf(`{"vehicle_id":"v-%d","area":"chicago","seed":7,"policy":"softml","params":{"lambda":%g},"prediction":{"predicted_stop_s":40}}`,
			i, float64(i)/1000)
		status, got := serveJSON(h, "POST", "/v1/decide", body)
		if status != http.StatusOK {
			t.Fatalf("decide %d: %d %s", i, status, got)
		}
		fresh, err := New(Config{Areas: testAreas()})
		if err != nil {
			t.Fatal(err)
		}
		if _, want := serveJSON(fresh.Handler(), "POST", "/v1/decide", body); !bytes.Equal(got, want) {
			t.Fatalf("decide %d diverged from a fresh server:\n%s\n%s", i, got, want)
		}
	}
	v, _ := s.cache.view("chicago")
	if n := v.tuned(); n > maxTuned {
		t.Errorf("chicago keeps %d explicitly parameterized strategies, want at most %d", n, maxTuned)
	}
	if got, _ := s.rec.Snapshot().CounterValue("decide_cache_hits_total"); got != 1000 {
		t.Errorf("decide_cache_hits_total = %v, want 1000", got)
	}
}

// TestStrategyFromStaleView: a strategy obtained through a view is
// prepared from that view's record even after the area moved on, and
// the stale request stores nothing in the current view.
func TestStrategyFromStaleView(t *testing.T) {
	c, err := NewCache(testAreas(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := policy.Lookup(policy.MultislopeEngine)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := policy.Lookup(policy.SoftMLEngine)
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := c.view("chicago")
	if _, err := c.Update("chicago", 0, skirental.Stats{MuBMinus: 5, QBPlus: 0.5}); err != nil {
		t.Fatal(err)
	}
	v2, _ := c.view("chicago")
	for _, tc := range []struct {
		eng    policy.Engine
		params map[string]float64
	}{
		{c.eager[0], nil},
		{ms, nil},
		{sm, map[string]float64{"lambda": 0.5}},
	} {
		st, err := c.StrategyParams(v1, tc.eng, tc.params)
		if err != nil {
			t.Fatal(err)
		}
		if st.rec != v1.rec {
			t.Errorf("%s via the version-1 view served the version-%d record", tc.eng.Name(), st.rec.version)
		}
	}
	if cur, _ := c.view("chicago"); cur != v2 {
		t.Error("a stale view's lazy fill replaced the current view")
	}
}

// TestCacheUpdateIsolated: Update, a lazy fill and Restore each
// publish new views for exactly the areas they name; every other
// area's view pointer is unchanged.
func TestCacheUpdateIsolated(t *testing.T) {
	c, err := NewCache(SyntheticAreaStates(64, 28), nil)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := policy.Lookup(policy.MultislopeEngine)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		op    string
		named []string
	}{
		{"update", []string{"syn-000003"}},
		{"fill", []string{"syn-000017"}},
		{"restore", []string{"syn-000005", "syn-000040"}},
	} {
		t.Run(tc.op, func(t *testing.T) {
			before := c.views()
			switch tc.op {
			case "update":
				v, _ := c.view(tc.named[0])
				if _, err := c.Update(tc.named[0], 0, skirental.Stats{MuBMinus: v.rec.state.Mu + 0.5, QBPlus: v.rec.state.Q}); err != nil {
					t.Fatal(err)
				}
			case "fill":
				v, _ := c.view(tc.named[0])
				if _, err := c.StrategyParams(v, ms, nil); err != nil {
					t.Fatal(err)
				}
			case "restore":
				var entries []AreaSnapshot
				for _, id := range tc.named {
					v, _ := c.view(id)
					entries = append(entries, AreaSnapshot{AreaState: v.rec.state, Version: v.rec.version + 10})
				}
				if err := c.Restore(entries, RetuneConfig{}); err != nil {
					t.Fatal(err)
				}
			}
			for i, v := range c.views() {
				id := v.rec.state.ID
				isNamed := false
				for _, n := range tc.named {
					isNamed = isNamed || n == id
				}
				if changed := v != before[i]; changed != isNamed {
					t.Errorf("%s %v: area %s view changed = %v", tc.op, tc.named, id, changed)
				}
			}
		})
	}
}

// TestNewShardedCacheIgnoresShards: the deprecated constructor builds
// the same per-area cache as NewCache whatever shard count it is
// given. Every area is served, with the same default strategy.
func TestNewShardedCacheIgnoresShards(t *testing.T) {
	areas := SyntheticAreaStates(64, 28)
	want, err := NewCache(areas, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{-3, 0, 1, 16, 1000} {
		c, err := NewShardedCache(areas, nil, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if c.Len() != want.Len() {
			t.Errorf("shards=%d: Len %d, want %d", shards, c.Len(), want.Len())
		}
		for _, a := range areas {
			got, ok := c.Get(a.ID)
			w, _ := want.Get(a.ID)
			if !ok || got.Info() != w.Info() {
				t.Errorf("shards=%d: area %s served %v (ok=%v), want %+v", shards, a.ID, got, ok, w.Info())
			}
		}
	}
}

// TestDecideCacheCounters: decide_cache_hits_total counts every
// default-B decide, whether its strategy was eager, filled lazily or
// prepared for the one request past maxTuned.
// decide_cache_misses_total counts custom-B decides. No per-shard
// series is exported.
func TestDecideCacheCounters(t *testing.T) {
	s, err := New(Config{Areas: testAreas()})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	bodies := []string{
		`{"vehicle_id":"c","area":"chicago"}`,
		`{"vehicle_id":"c","area":"chicago","policy":"multislope3"}`,
		`{"vehicle_id":"c","area":"chicago","b":55}`,
	}
	for i := 0; i < maxTuned+2; i++ {
		bodies = append(bodies, fmt.Sprintf(`{"vehicle_id":"c","area":"atlanta","policy":"softml","params":{"lambda":%g}}`, 0.05*float64(i+1)))
	}
	for _, body := range bodies {
		if status, raw := serveJSON(h, "POST", "/v1/decide", body); status != http.StatusOK {
			t.Fatalf("decide %s: %d %s", body, status, raw)
		}
	}
	snap := s.rec.Snapshot()
	if got, _ := snap.CounterValue("decide_cache_hits_total"); got != int64(len(bodies)-1) {
		t.Errorf("decide_cache_hits_total = %d, want %d", got, len(bodies)-1)
	}
	if got, _ := snap.CounterValue("decide_cache_misses_total"); got != 1 {
		t.Errorf("decide_cache_misses_total = %d, want 1", got)
	}
	status, raw := serveJSON(h, "GET", "/metrics", "")
	if status != http.StatusOK {
		t.Fatalf("metrics: %d", status)
	}
	if bytes.Contains(raw, []byte("decide_shard_")) {
		t.Errorf("metrics export a per-shard series:\n%s", raw)
	}
}

// TestCacheCostIndependentOfAreaCount: a stats update, and a lazy fill
// after one, allocate the same on a 20,000-area cache as on the three
// paper areas, because neither copies any other area's data. The fill
// is softml's, whose prepare allocates the same under -race on every
// call (multislope3's does not).
func TestCacheCostIndependentOfAreaCount(t *testing.T) {
	paper, err := DefaultAreaStates(28)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := policy.Lookup(policy.SoftMLEngine)
	if err != nil {
		t.Fatal(err)
	}
	lambda := map[string]float64{"lambda": 0.5}
	allocs := func(areas []AreaState) (update, updateFill float64) {
		c, err := NewCache(areas, nil)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := c.view("chicago")
		stats := []skirental.Stats{v.rec.state.Stats(), {MuBMinus: v.rec.state.Mu, QBPlus: v.rec.state.Q * 0.9}}
		i := 0
		step := func() {
			i++
			if _, err := c.Update("chicago", 0, stats[i%2]); err != nil {
				t.Fatal(err)
			}
		}
		update = testing.AllocsPerRun(50, step)
		updateFill = testing.AllocsPerRun(50, func() {
			step()
			v, _ := c.view("chicago")
			if _, err := c.StrategyParams(v, sm, lambda); err != nil {
				t.Fatal(err)
			}
		})
		return update, updateFill
	}
	smallUpdate, smallFill := allocs(paper)
	bigUpdate, bigFill := allocs(append(paper, SyntheticAreaStates(20_000-len(paper), 28)...))
	if bigUpdate != smallUpdate || bigFill != smallFill {
		t.Errorf("allocs/op at 20,000 areas: update %v, update+fill %v; at 3 areas: update %v, update+fill %v",
			bigUpdate, bigFill, smallUpdate, smallFill)
	}
}
