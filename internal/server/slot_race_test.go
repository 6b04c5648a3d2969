package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// alarmingRetune makes an area's observe stream warm after two stops
// and alarm on most level shifts of stormStop, so re-tunes come every
// few observations.
var alarmingRetune = RetuneConfig{MinObservations: 2, DriftWarmup: 2, DriftThreshold: 0.5, DriftSlack: 0.01}

// stormStop is the i-th stop of an alarming stream: runs of three 3-s
// stops and runs of three 60-s stops.
func stormStop(i int) float64 {
	if i/3%2 == 0 {
		return 3
	}
	return 60
}

// stormObserves is the observe count of each storm client: a
// twentieth under -race, where every request costs several times more
// and make race-stress runs the storms ten times over.
func stormObserves() int {
	if raceEnabled {
		return 1000
	}
	return 20000
}

// auditRecords flushes s's audit sink and returns the decide and
// observe records buf holds, in log order.
func auditRecords(t *testing.T, s *Server, buf *syncBuffer) (decides []AuditRecord, observes []ObserveRecord) {
	t.Helper()
	if err := s.auditW.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAudit(strings.NewReader(buf.String()), func(_ int, rec any) {
		switch r := rec.(type) {
		case AuditRecord:
			decides = append(decides, r)
		case ObserveRecord:
			observes = append(observes, r)
		}
	}); err != nil {
		t.Fatal(err)
	}
	return decides, observes
}

// observeStorm runs clients goroutines that each POST stormObserves
// alarming observations on chicago through h, while every loop in
// beside runs until the storm ends.
func observeStorm(t *testing.T, h http.Handler, clients int, beside ...func(stop <-chan struct{})) {
	t.Helper()
	stop := make(chan struct{})
	var side sync.WaitGroup
	for _, f := range beside {
		side.Add(1)
		go func() {
			defer side.Done()
			f(stop)
		}()
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < stormObserves(); i++ {
				body := fmt.Sprintf(`{"area":"chicago","stop_sec":%g,"vehicle_id":"o-%d"}`, stormStop(i), c)
				if status, raw := serveJSON(h, "POST", "/v1/observe", body); status != http.StatusOK {
					t.Errorf("observe: %d %s", status, raw)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	side.Wait()
}

// untilStopped runs step until stop closes or step fails.
func untilStopped(stop <-chan struct{}, step func(i int) bool) {
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		if !step(i) {
			return
		}
	}
}

// TestObserveRacingStatsUpdate: an observe re-tunes its area under the
// lock its stream lives under, so the re-tune publishes the statistics
// the stream measured at the break-even interval it measured them at,
// even while another client flips the area's B between 28 and 35. Every
// re-tuned observe record's (b, mu, q) must be what the decides at its
// stats version served, and its b the b every other observe record at
// that version was measured at.
func TestObserveRacingStatsUpdate(t *testing.T) {
	audit := &syncBuffer{}
	s, err := New(Config{Areas: testAreas(), AuditLog: audit, Retune: alarmingRetune})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	flip := func(stop <-chan struct{}) {
		bodies := []string{`{"b":35,"mu":8,"q":0.13}`, `{"b":28,"mu":8,"q":0.13}`}
		untilStopped(stop, func(i int) bool {
			status, raw := serveJSON(h, "PUT", "/v1/areas/chicago/stats", bodies[i%2])
			if status != http.StatusOK {
				t.Errorf("stats update: %d %s", status, raw)
			}
			return status == http.StatusOK
		})
	}
	decide := func(stop <-chan struct{}) {
		untilStopped(stop, func(i int) bool {
			status, raw := serveJSON(h, "POST", "/v1/decide", fmt.Sprintf(`{"vehicle_id":"d-%d","area":"chicago"}`, i))
			if status != http.StatusOK {
				t.Errorf("decide: %d %s", status, raw)
			}
			return status == http.StatusOK
		})
	}
	observeStorm(t, h, 3, flip, decide)

	decides, observes := auditRecords(t, s, audit)
	served := make(map[uint64][3]float64)
	for _, d := range decides {
		served[d.StatsVersion] = [3]float64{d.B, d.Mu, d.Q}
	}
	measured := make(map[uint64]float64)
	for _, o := range observes {
		if !o.Retuned {
			measured[o.StatsVersion] = o.B
		}
	}
	joined, mismatched := 0, 0
	for _, o := range observes {
		if !o.Retuned {
			continue
		}
		if want, ok := served[o.StatsVersion]; ok {
			joined++
			if got := [3]float64{o.B, o.Mu, o.Q}; got != want {
				if mismatched++; mismatched <= 5 {
					t.Errorf("re-tune #%d to version %d recorded (b, mu, q) = %v; decides at that version served %v", o.Seq, o.StatsVersion, got, want)
				}
			}
		}
		if b, ok := measured[o.StatsVersion]; ok {
			joined++
			if b != o.B {
				if mismatched++; mismatched <= 5 {
					t.Errorf("re-tune #%d to version %d recorded b = %v; observes at that version measured b = %v", o.Seq, o.StatsVersion, o.B, b)
				}
			}
		}
	}
	if mismatched > 0 {
		t.Errorf("%d of %d joins disagree with their version's decides or observes", mismatched, joined)
	}
	if joined == 0 {
		t.Fatalf("no re-tune joined a decide or observe (%d decide and %d observe records)", len(decides), len(observes))
	}
}

// TestSnapshotDuringObserveStorm: a snapshot reads each area's record
// and stream under the area's one lock, and an observe holds that lock
// through its re-tune, so every captured (version, tracker) pair is one
// an observe left behind: the version is the stats version of the
// observe record whose seq is the tracker's seen.
func TestSnapshotDuringObserveStorm(t *testing.T) {
	audit := &syncBuffer{}
	s, err := New(Config{Areas: testAreas(), AuditLog: audit, Retune: alarmingRetune})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	type capture struct {
		seen    int64
		version uint64
	}
	var (
		mu       sync.Mutex
		captures []capture
	)
	snapshots := func(stop <-chan struct{}) {
		untilStopped(stop, func(int) bool {
			status, raw := serveJSON(h, "GET", "/v1/snapshot", "")
			if status != http.StatusOK {
				t.Errorf("snapshot: %d %s", status, raw)
				return false
			}
			p, err := DecodeSnapshot(raw)
			if err != nil {
				t.Error(err)
				return false
			}
			for _, a := range p.Areas {
				if a.ID == "chicago" && a.Tracker.Seen > 0 {
					mu.Lock()
					captures = append(captures, capture{a.Tracker.Seen, a.Version})
					mu.Unlock()
				}
			}
			return true
		})
	}
	observeStorm(t, h, 2, snapshots)

	_, observes := auditRecords(t, s, audit)
	versionAt := make(map[int64]uint64, len(observes))
	for _, o := range observes {
		versionAt[o.Seq] = o.StatsVersion
	}
	checked, inconsistent := 0, 0
	for _, c := range captures {
		want, ok := versionAt[c.seen]
		if !ok {
			continue
		}
		checked++
		if c.version != want {
			if inconsistent++; inconsistent <= 5 {
				t.Errorf("snapshot pairs tracker seen %d with version %d; observe #%d left version %d", c.seen, c.version, c.seen, want)
			}
		}
	}
	if inconsistent > 0 {
		t.Errorf("%d of %d snapshots pair chicago's version with a stream that has moved past it", inconsistent, checked)
	}
	if checked == 0 {
		t.Fatal("no snapshot caught chicago's stream")
	}
}

// TestBootBuildsNoStream: New builds no observation stream, however
// many areas it serves; an area's first observe creates its stream and
// no other.
func TestBootBuildsNoStream(t *testing.T) {
	areas := make([]AreaState, 20000)
	for i := range areas {
		areas[i] = AreaState{ID: fmt.Sprintf("syn-%06d", i), B: 28, Mu: 8, Q: 0.13}
	}
	s, err := New(Config{Areas: areas})
	if err != nil {
		t.Fatal(err)
	}
	streams := func() (ids []string) {
		for id, sl := range s.cache.slots {
			sl.mu.Lock()
			if sl.tr != nil {
				ids = append(ids, id)
			}
			sl.mu.Unlock()
		}
		return ids
	}
	if ids := streams(); len(ids) != 0 {
		t.Fatalf("boot built %d streams", len(ids))
	}
	if status, raw := serveJSON(s.Handler(), "POST", "/v1/observe", `{"area":"syn-000123","stop_sec":12}`); status != http.StatusOK {
		t.Fatalf("observe: %d %s", status, raw)
	}
	if ids := streams(); len(ids) != 1 || ids[0] != "syn-000123" {
		t.Errorf("streams after one observe on syn-000123: %v", ids)
	}
}

// TestNewRejectsInvalidRetune: an observe stream configuration no area
// could run refuses the server at boot, although boot builds no stream.
// That includes every float setting at NaN or +Inf: NaN passes a bare
// x <= 0 test, and a NaN forgetting or slack answers every observe and
// snapshot with 500, a NaN threshold never alarms.
func TestNewRejectsInvalidRetune(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for name, rc := range map[string]RetuneConfig{
		"Forgetting=1.5":      {Forgetting: 1.5},
		"DriftWarmup=1":       {DriftWarmup: 1},
		"Forgetting=NaN":      {Forgetting: nan},
		"Forgetting=+Inf":     {Forgetting: inf},
		"DriftThreshold=NaN":  {DriftThreshold: nan},
		"DriftThreshold=+Inf": {DriftThreshold: inf},
		"DriftSlack=NaN":      {DriftSlack: nan},
		"DriftSlack=+Inf":     {DriftSlack: inf},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := New(Config{Areas: testAreas(), Retune: rc}); err == nil {
				t.Errorf("New accepted %+v", rc)
			}
		})
	}
}

// TestNeverObservedAreaSnapshotsZeroTracker: the snapshot entry of an
// area that never saw an observe carries the zero tracker, byte for
// byte what a stream that absorbed nothing encodes to.
func TestNeverObservedAreaSnapshotsZeroTracker(t *testing.T) {
	s, err := New(Config{Areas: testAreas()})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.cfg.Retune.newStream(28)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := json.Marshal(tr.State())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range s.StatePlane().Areas {
		got, err := json.Marshal(a.Tracker)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(fresh) {
			t.Errorf("area %s: tracker %s, want the fresh stream's %s", a.ID, got, fresh)
		}
	}
}
