package ledger

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
)

func pend(id string, ms int64) Pending {
	return Pending{
		ID: id, Area: "chicago", Engine: "constrained@v1",
		B: 28, ThresholdSec: 11, Bound: 1.5, IssuedUnixMS: ms,
	}
}

// TestRealizedCost: a settle charges the paper's eq. 3 online cost and
// eq. 2 offline cost, restart included when the stop reaches the
// threshold exactly.
func TestRealizedCost(t *testing.T) {
	cases := []struct {
		b, th, stop, online, opt float64
	}{
		{28, 10, 5, 5, 5},    // short stop: idle through, OPT idles too
		{28, 10, 10, 38, 10}, // exactly at threshold: restart (eq. 3, y >= x)
		{28, 10, 40, 38, 28}, // long stop: idle 10 + restart 28; OPT restarts
		{28, 0, 7, 28, 7},    // immediate-off: pure restart cost
		{28, 50, 40, 40, 28}, // threshold past B: online idles the whole stop
		{28, 28, 28, 56, 28}, // DET on a B-second stop: 2B
		{28, 0, 0, 28, 0},    // TOI on a zero-length stop: the restart alone
	}
	for i, c := range cases {
		l := New(Config{})
		p := pend("d-1", 0)
		p.B, p.ThresholdSec = c.b, c.th
		if _, err := l.Issue(p); err != nil {
			t.Fatal(err)
		}
		out, err := l.Settle("d-1", c.stop, 0)
		if err != nil {
			t.Fatal(err)
		}
		if out.Online != c.online || out.Opt != c.opt {
			t.Errorf("case %d: settle(b=%v, threshold=%v, stop=%v) = (%v,%v), want (%v,%v)",
				i, c.b, c.th, c.stop, out.Online, out.Opt, c.online, c.opt)
		}
	}
}

func TestIssueSettleJoin(t *testing.T) {
	l := New(Config{})
	if _, err := l.Issue(pend("d-1", 1000)); err != nil {
		t.Fatal(err)
	}
	out, err := l.Settle("d-1", 40, 1350)
	if err != nil {
		t.Fatal(err)
	}
	if out.Online != 39 || out.Opt != 28 {
		t.Errorf("realized (%v, %v), want (39, 28)", out.Online, out.Opt)
	}
	if out.JoinMS != 350 {
		t.Errorf("join latency %d, want 350", out.JoinMS)
	}
	if out.Pending.Area != "chicago" || out.Pending.Engine != "constrained@v1" {
		t.Errorf("settled wrong pending: %+v", out.Pending)
	}
	c := l.Counters()
	if c.Issued != 1 || c.Settled != 1 || c.Orphaned != 0 || c.Expired != 0 {
		t.Errorf("counters %+v", c)
	}
	if n := l.PendingCount(); n != 0 {
		t.Errorf("pending %d after settle", n)
	}

	// A settle timed before its issue (the wall clock stepped back, or
	// the entry was restored from a host whose clock ran ahead) joins
	// with zero latency, never a negative one.
	if _, err := l.Issue(pend("d-early", 1000)); err != nil {
		t.Fatal(err)
	}
	early, err := l.Settle("d-early", 40, 900)
	if err != nil {
		t.Fatal(err)
	}
	if early.JoinMS != 0 {
		t.Errorf("settle before issue: join latency %d, want 0", early.JoinMS)
	}
}

func TestSettleErrorClasses(t *testing.T) {
	l := New(Config{})
	if _, err := l.Settle("never-issued", 10, 0); !errors.Is(err, ErrUnknownDecision) {
		t.Errorf("unknown id: %v", err)
	}
	if _, err := l.Settle("", 10, 0); !errors.Is(err, ErrUnknownDecision) {
		t.Errorf("empty id: %v", err)
	}
	if _, err := l.Issue(pend("d-1", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Settle("d-1", 10, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Settle("d-1", 10, 200); !errors.Is(err, ErrDuplicateSettle) {
		t.Errorf("duplicate settle: %v", err)
	}
	if _, err := l.Settle("d-1", 10, 300); !errors.Is(err, ErrDuplicateSettle) {
		t.Errorf("triple settle: %v", err)
	}
	if c := l.Counters(); c.Orphaned != 2 {
		t.Errorf("orphans %d, want 2 (never-issued + empty)", c.Orphaned)
	}
	if _, err := l.Settle("d-x", math.NaN(), 0); err == nil {
		t.Error("NaN stop settled")
	}
	if _, err := l.Settle("d-x", -1, 0); err == nil {
		t.Error("negative stop settled")
	}
}

// TestSettleNonFiniteCostStaysPending: at a break-even interval near
// float64's limit, a stop past the threshold costs threshold + B, which
// overflows. The settle is refused and the entry stays pending for a
// stop it can be charged for.
func TestSettleNonFiniteCostStaysPending(t *testing.T) {
	l := New(Config{})
	p := pend("d-1", 0)
	p.B, p.ThresholdSec = 1e308, 1e308
	if _, err := l.Issue(p); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Settle("d-1", math.MaxFloat64, 100); err == nil || errors.Is(err, ErrUnknownDecision) {
		t.Fatalf("settle at an overflowing cost: %v, want a plain refusal", err)
	}
	if n := l.PendingCount(); n != 1 {
		t.Fatalf("pending %d after the refusal, want 1", n)
	}
	out, err := l.Settle("d-1", 5, 200)
	if err != nil || out.Online != 5 || out.Opt != 5 {
		t.Fatalf("later settle: %+v, %v", out, err)
	}
}

func TestSettleAfterExpiry(t *testing.T) {
	l := New(Config{TTLMS: 1000})
	if _, err := l.Issue(pend("d-1", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Settle("d-1", 10, 5000); !errors.Is(err, ErrUnknownDecision) {
		t.Errorf("settle after expiry: %v", err)
	}
	c := l.Counters()
	if c.Expired != 1 || c.Orphaned != 1 || c.Settled != 0 {
		t.Errorf("counters %+v", c)
	}
	if n := l.PendingCount(); n != 0 {
		t.Errorf("expired entry still pending (%d)", n)
	}
}

func TestIssueExpiresStaleHeads(t *testing.T) {
	l := New(Config{TTLMS: 1000})
	for i := 0; i < 5; i++ {
		if _, err := l.Issue(pend(fmt.Sprintf("old-%d", i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	// A fresh issue far past the TTL sweeps the whole stale head run.
	if _, err := l.Issue(pend("new", 10_000)); err != nil {
		t.Fatal(err)
	}
	if n := l.PendingCount(); n != 1 {
		t.Errorf("pending %d, want 1 (stale heads swept)", n)
	}
	if c := l.Counters(); c.Expired != 5 {
		t.Errorf("expired %d, want 5", c.Expired)
	}
}

func TestCapacityEviction(t *testing.T) {
	l := New(Config{Capacity: 4, TTLMS: 1 << 40})
	for i := 0; i < 10; i++ {
		if _, err := l.Issue(pend(fmt.Sprintf("d-%d", i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if n := l.PendingCount(); n != 4 {
		t.Errorf("pending %d, want capacity 4", n)
	}
	if c := l.Counters(); c.Expired != 6 {
		t.Errorf("expired %d, want 6 evictions", c.Expired)
	}
	// The oldest were evicted, the newest survive.
	if _, err := l.Settle("d-0", 5, 100); !errors.Is(err, ErrUnknownDecision) {
		t.Errorf("evicted entry settled: %v", err)
	}
	if _, err := l.Settle("d-9", 5, 100); err != nil {
		t.Errorf("newest entry lost: %v", err)
	}
}

func TestDuplicateIssueRejected(t *testing.T) {
	l := New(Config{})
	if _, err := l.Issue(pend("d-1", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Issue(pend("d-1", 1)); err == nil {
		t.Error("duplicate issue accepted")
	}
}

func TestIssueValidates(t *testing.T) {
	bad := []Pending{
		{},
		{ID: "x", Area: "a", Engine: "e", B: 0, ThresholdSec: 1},
		{ID: "x", Area: "a", Engine: "e", B: 28, ThresholdSec: -1},
		{ID: "x", Area: "", Engine: "e", B: 28, ThresholdSec: 1},
		{ID: "x", Area: "a", Engine: "e", B: 28, ThresholdSec: math.NaN()},
		{ID: "x", Area: "a", Engine: "e", B: 28, ThresholdSec: 1, Bound: math.Inf(1)},
	}
	l := New(Config{})
	for i, p := range bad {
		if _, err := l.Issue(p); err == nil {
			t.Errorf("case %d: invalid pending issued: %+v", i, p)
		}
	}
}

// TestEmpiricalCRConvergesInModel drives an in-model two-outcome trace
// through a DET-style threshold and checks the empirical CR lands at
// the analytic value with a shrinking band, below the published bound.
func TestEmpiricalCRConvergesInModel(t *testing.T) {
	l := New(Config{Window: 10})
	const b, th = 28.0, 28.0
	// Mostly-short in-model traffic: 90% stops of 5s, 10% of 60s.
	// online: short 5, long 28+28=56. opt: short 5, long 28.
	// CR = (0.9*5 + 0.1*56) / (0.9*5 + 0.1*28) = 10.1/7.3 ≈ 1.3836.
	var lastCR, lastBand float64
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("d-%d", i)
		p := pend(id, int64(i))
		p.ThresholdSec = th
		p.B = b
		p.Bound = math.E / (math.E - 1) // 1.582
		if _, err := l.Issue(p); err != nil {
			t.Fatal(err)
		}
		stop := 5.0
		if i%10 == 0 {
			stop = 60
		}
		out, err := l.Settle(id, stop, int64(i)+1)
		if err != nil {
			t.Fatal(err)
		}
		lastCR, lastBand = out.CR, out.Band
		if out.Breach {
			t.Fatalf("in-model trace tripped a breach at settle %d (cr %.4f band %.4f)", i, out.CR, out.Band)
		}
	}
	want := 10.1 / 7.3
	if math.Abs(lastCR-want) > 1e-9 {
		t.Errorf("empirical CR %.6f, want %.6f", lastCR, want)
	}
	if lastBand <= 0 || lastBand > 0.2 {
		t.Errorf("band %.4f after 1000 settles, want small positive", lastBand)
	}
	if lastCR+lastBand >= math.E/(math.E-1) {
		t.Errorf("CR %.4f + band %.4f not below bound %.4f", lastCR, lastBand, math.E/(math.E-1))
	}
	if c := l.Counters(); c.Breaches != 0 {
		t.Errorf("breaches %d on in-model trace", c.Breaches)
	}
}

// TestBreachDetectorTripsOnAdversarialTrace: every stop lands just past
// the threshold — the classic worst case — so realized CR ≈ 2 while the
// published bound is e/(e-1); the detector must trip after
// Window×Patience settles and keep counting.
func TestBreachDetectorTripsOnAdversarialTrace(t *testing.T) {
	l := New(Config{Window: 10, Patience: 3})
	breaches := 0
	firstTrip := -1
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("d-%d", i)
		p := pend(id, int64(i))
		p.ThresholdSec = 11
		p.Bound = math.E / (math.E - 1)
		if _, err := l.Issue(p); err != nil {
			t.Fatal(err)
		}
		out, err := l.Settle(id, 11.1, int64(i)+1)
		if err != nil {
			t.Fatal(err)
		}
		if out.Breach {
			breaches++
			if firstTrip < 0 {
				firstTrip = i
			}
		}
	}
	if breaches == 0 {
		t.Fatal("adversarial trace never tripped the breach detector")
	}
	if firstTrip < 20 {
		t.Errorf("breach tripped at settle %d, before Window×Patience settles", firstTrip)
	}
	if c := l.Counters(); c.Breaches != uint64(breaches) {
		t.Errorf("counter %d, outcomes reported %d", c.Breaches, breaches)
	}
	rows := l.Rows()
	if len(rows) != 1 || rows[0].Breaches != uint64(breaches) {
		t.Errorf("rows %+v", rows)
	}
	if rows[0].CR < 1.9 {
		t.Errorf("adversarial empirical CR %.4f, want ≈ (11.1+28)/20... above 1.9", rows[0].CR)
	}
}

func TestRowsSortedAndWorst(t *testing.T) {
	l := New(Config{})
	for i, key := range []struct{ area, engine string }{
		{"boston", "multislope3@v1"},
		{"atlanta", "constrained@v1"},
		{"boston", "constrained@v1"},
	} {
		id := fmt.Sprintf("d-%d", i)
		p := pend(id, 0)
		p.Area, p.Engine = key.area, key.engine
		if _, err := l.Issue(p); err != nil {
			t.Fatal(err)
		}
		// Give boston/multislope3 the worst realized CR (long stop).
		stop := 5.0
		if i == 0 {
			stop = 60
		}
		if _, err := l.Settle(id, stop, 1); err != nil {
			t.Fatal(err)
		}
	}
	rows := l.Rows()
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
	order := []string{"atlanta/constrained@v1", "boston/constrained@v1", "boston/multislope3@v1"}
	for i, want := range order {
		if got := rows[i].Area + "/" + rows[i].Engine; got != want {
			t.Errorf("row %d = %s, want %s", i, got, want)
		}
	}
	worst, ok := l.Worst()
	if !ok || worst.Engine != "multislope3@v1" {
		t.Errorf("worst = %+v, %v", worst, ok)
	}
}

func TestForgettingDiscountsOldOutcomes(t *testing.T) {
	l := New(Config{Forgetting: 0.5})
	// First a long (bad) outcome, then a run of short (good) ones: with
	// forgetting 0.5 the early outcome's weight decays geometrically and
	// the CR approaches 1.
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("d-%d", i)
		if _, err := l.Issue(pend(id, 0)); err != nil {
			t.Fatal(err)
		}
		stop := 5.0
		if i == 0 {
			stop = 60
		}
		if _, err := l.Settle(id, stop, 1); err != nil {
			t.Fatal(err)
		}
	}
	rows := l.Rows()
	if cr := rows[0].CR; math.Abs(cr-1) > 1e-4 {
		t.Errorf("forgotten CR %.6f, want ≈ 1", cr)
	}
}

func TestStateRoundtripByteIdentical(t *testing.T) {
	l := New(Config{Window: 5})
	for i := 0; i < 30; i++ {
		id := fmt.Sprintf("d-%d", i)
		p := pend(id, int64(i*10))
		if i%3 == 0 {
			p.Area = "atlanta"
		}
		if _, err := l.Issue(p); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if _, err := l.Settle(id, float64(5+i), int64(i*10+7)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// One orphan for counter coverage.
	if _, err := l.Settle("ghost", 3, 0); !errors.Is(err, ErrUnknownDecision) {
		t.Fatal(err)
	}

	st := l.State()
	if st.Empty() {
		t.Fatal("populated ledger reports empty state")
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	first, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}

	l2 := New(Config{Window: 5})
	if err := l2.Restore(st); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(l2.State())
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Errorf("state did not roundtrip byte-identically:\n%s\n%s", first, second)
	}
	if l2.PendingCount() != l.PendingCount() {
		t.Errorf("pending %d vs %d", l2.PendingCount(), l.PendingCount())
	}
	if l2.Counters() != l.Counters() {
		t.Errorf("counters %+v vs %+v", l2.Counters(), l.Counters())
	}

	// The restored ledger behaves identically: a pending entry settles,
	// a settled id still reads as duplicate.
	if _, err := l2.Settle("d-1", 9, 500); err != nil {
		t.Errorf("restored pending entry not settleable: %v", err)
	}
	if _, err := l2.Settle("d-0", 9, 500); !errors.Is(err, ErrDuplicateSettle) {
		t.Errorf("restored settled id not duplicate-detected: %v", err)
	}
}

func TestRestoreRejectsInvalidState(t *testing.T) {
	l := New(Config{})
	if _, err := l.Issue(pend("keep", 0)); err != nil {
		t.Fatal(err)
	}
	bad := []State{
		{Pending: []Pending{{ID: ""}}},
		{Pending: []Pending{pend("a", 0), pend("a", 1)}},
		{Settled: []string{""}},
		{Accums: []AccumState{{Area: "", Engine: "e"}}},
		{Accums: []AccumState{{Area: "a", Engine: "e", W: math.NaN()}}},
		// A weight below one, which no settle leaves, would carry the
		// mean cost past float64's range (1e300 / 1e-10).
		{Accums: []AccumState{{Area: "a", Engine: "e", W: 1e-10, W2: 1e-20, SumOn: 1e300, SumOp: 1e300, Count: 1}}},
		{Accums: []AccumState{
			{Area: "a", Engine: "e", W: 1, W2: 1},
			{Area: "a", Engine: "e", W: 1, W2: 1},
		}},
	}
	for i, st := range bad {
		if err := l.Restore(st); err == nil {
			t.Errorf("case %d: invalid state restored", i)
		}
	}
	// Failed restores left the existing state alone.
	if _, err := l.Settle("keep", 5, 1); err != nil {
		t.Errorf("existing state damaged by rejected restore: %v", err)
	}
}

func TestEmptyState(t *testing.T) {
	l := New(Config{})
	st := l.State()
	if !st.Empty() {
		t.Errorf("fresh ledger state not empty: %+v", st)
	}
	if err := l.Restore(State{}); err != nil {
		t.Errorf("empty restore: %v", err)
	}
}

func TestExpireBefore(t *testing.T) {
	l := New(Config{TTLMS: 100})
	for i := 0; i < 8; i++ {
		if _, err := l.Issue(pend(fmt.Sprintf("d-%d", i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if n := l.ExpireBefore(105); n != 6 { // issued 0..5 are ≤ cutoff 5
		t.Errorf("expired %d, want 6", n)
	}
	if n := l.PendingCount(); n != 2 {
		t.Errorf("pending %d, want 2", n)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Capacity != 32768 || c.TTLMS != 600_000 ||
		c.Forgetting != 1 || c.Window != 20 || c.Patience != 3 || c.Band != 2 {
		t.Errorf("defaults %+v", c)
	}
}

// TestCapacityBoundsWholeTable: Capacity bounds every pending decision
// together, whatever their ids, and eviction keeps the newest.
func TestCapacityBoundsWholeTable(t *testing.T) {
	l := New(Config{Capacity: 4, TTLMS: 1 << 40})
	for i := 0; i < 100; i++ {
		if _, err := l.Issue(pend(fmt.Sprintf("d-%d", i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	var ids []string
	for _, p := range l.State().Pending {
		ids = append(ids, p.ID)
	}
	if fmt.Sprint(ids) != "[d-96 d-97 d-98 d-99]" {
		t.Errorf("pending %v, want the 4 newest", ids)
	}
	if c := l.Counters(); c.Expired != 96 {
		t.Errorf("expired %d, want 96", c.Expired)
	}
}

// TestSettledRingBoundedByCapacity: the duplicate-detection ring keeps
// the Capacity most recent settled ids, over the whole ledger.
func TestSettledRingBoundedByCapacity(t *testing.T) {
	l := New(Config{Capacity: 4, TTLMS: 1 << 40})
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("d-%d", i)
		if _, err := l.Issue(pend(id, int64(i))); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Settle(id, 5, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := fmt.Sprint(l.State().Settled); got != "[d-6 d-7 d-8 d-9]" {
		t.Errorf("settled ring %s, want the 4 newest", got)
	}
	if _, err := l.Settle("d-9", 5, 10); !errors.Is(err, ErrDuplicateSettle) {
		t.Errorf("recent settled id: %v, want duplicate", err)
	}
	if _, err := l.Settle("d-5", 5, 10); !errors.Is(err, ErrUnknownDecision) {
		t.Errorf("id past the ring: %v, want unknown", err)
	}
}

// TestStatePendingInIssueOrder: State lists pending entries in the
// order they were issued.
func TestStatePendingInIssueOrder(t *testing.T) {
	l := New(Config{})
	var want []string
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("z-%d", 49-i)
		want = append(want, id)
		if _, err := l.Issue(pend(id, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for _, p := range l.State().Pending {
		got = append(got, p.ID)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("pending order %v, want issue order %v", got, want)
	}
}

// settleAll issues one TOI decision (threshold 0, B = 28) per stop and
// settles it with that stop.
func settleAll(t *testing.T, l *Ledger, stops ...float64) Outcome {
	t.Helper()
	var out Outcome
	for i, y := range stops {
		p := pend(fmt.Sprintf("toi-%d", i), 0)
		p.ThresholdSec = 0
		if _, err := l.Issue(p); err != nil {
			t.Fatal(err)
		}
		var err error
		if out, err = l.Settle(p.ID, y, 0); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestSubnormalStopCRFinite: TOI settled by a 5e-324 s stop pays the
// 28-s restart against an optimal cost of 5e-324, a ratio float64
// cannot hold; the CR reads as the largest finite float64 and the
// band as not estimable.
func TestSubnormalStopCRFinite(t *testing.T) {
	l := New(Config{})
	out := settleAll(t, l, 5e-324)
	if out.CR != math.MaxFloat64 || !math.IsInf(out.Band, 1) {
		t.Errorf("outcome CR %v band %v, want MaxFloat64 and not estimable", out.CR, out.Band)
	}
	rows := l.Rows()
	if len(rows) != 1 || rows[0].CR != math.MaxFloat64 || rows[0].Band != -1 {
		t.Fatalf("rows %+v", rows)
	}
	if _, err := json.Marshal(rows); err != nil {
		t.Errorf("rows do not encode: %v", err)
	}
}

// TestTinyStopsBandNotEstimable: two settles at 1e-200 s keep their
// finite CR bit for bit, while the band's squared means underflow; the
// band reads as not estimable.
func TestTinyStopsBandNotEstimable(t *testing.T) {
	l := New(Config{})
	out := settleAll(t, l, 1e-200, 1e-200)
	if want := (56.0 / 2) / (2e-200 / 2); out.CR != want || !math.IsInf(out.Band, 1) {
		t.Errorf("outcome CR %v band %v, want %v and not estimable", out.CR, out.Band, want)
	}
	rows := l.Rows()
	if len(rows) != 1 || rows[0].Band != -1 {
		t.Fatalf("rows %+v", rows)
	}
	if _, err := json.Marshal(rows); err != nil {
		t.Errorf("rows do not encode: %v", err)
	}
}

// TestSettleRefusesUnholdableSums: a settle whose costs would carry one
// of its accumulator's running sums past float64's range is refused,
// and the entry stays pending with the table, the accumulator and the
// counters as they were, so the state still validates. TOI at
// B = 1e200 pays a restart whose square overflows on the first settle;
// at B = 1e154 the square is finite, and the second settle overflows
// the running sum of squares.
func TestSettleRefusesUnholdableSums(t *testing.T) {
	for _, c := range []struct {
		b      float64
		settle int // settles accepted before the refusal
	}{{1e200, 0}, {1e154, 1}} {
		l := New(Config{})
		for i := 0; i <= c.settle; i++ {
			p := pend(fmt.Sprintf("d-%d", i), 0)
			p.B, p.ThresholdSec = c.b, 0
			if _, err := l.Issue(p); err != nil {
				t.Fatal(err)
			}
			before := l.State()
			_, err := l.Settle(p.ID, 5, 0)
			if i < c.settle {
				if err != nil {
					t.Fatalf("b %v: settle %d: %v", c.b, i, err)
				}
				continue
			}
			if err == nil || errors.Is(err, ErrUnknownDecision) || errors.Is(err, ErrDuplicateSettle) {
				t.Fatalf("b %v: settle %d: %v, want a plain refusal", c.b, i, err)
			}
			after := l.State()
			if err := after.Validate(); err != nil {
				t.Fatalf("b %v: state after the refusal: %v", c.b, err)
			}
			got, _ := json.Marshal(after)
			want, _ := json.Marshal(before)
			if string(got) != string(want) {
				t.Errorf("b %v: the refusal changed the state:\n got %s\nwant %s", c.b, got, want)
			}
			if len(after.Pending) != 1 || after.Pending[0].ID != p.ID {
				t.Errorf("b %v: pending %+v, want %s still pending", c.b, after.Pending, p.ID)
			}
		}
	}
}

// TestStateIsOneCut: four writers issue and settle while a reader
// captures the state. Every capture must be one cut: each id it lists
// as settled has its outcome in an accumulator and in the counters,
// and each issued id is either pending or settled. The ring holds
// every settled id here (fewer settles than Capacity, no expiry).
func TestStateIsOneCut(t *testing.T) {
	const writers, perWriter = 4, 2000
	l := New(Config{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				p := pend(fmt.Sprintf("w%d-%d", w, i), 0)
				p.Area = fmt.Sprintf("area-%d", i%3)
				if _, err := l.Issue(p); err != nil {
					t.Error(err)
					return
				}
				if _, err := l.Settle(p.ID, float64(i%60), 0); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	captures, torn := 0, 0
	for running := true; running; captures++ {
		select {
		case <-done:
			running = false // one last capture of the final state
		default:
		}
		st := l.State()
		var counted uint64
		for _, a := range st.Accums {
			counted += a.Count
		}
		settled := uint64(len(st.Settled))
		if counted != settled || st.Counters.Settled != settled || st.Issued != settled+uint64(len(st.Pending)) {
			if torn == 0 {
				t.Errorf("capture %d: %d ids settled, accumulators count %d, counters %+v, %d pending",
					captures, settled, counted, st.Counters, len(st.Pending))
			}
			torn++
		}
	}
	if torn > 0 {
		t.Errorf("%d of %d captures were not one cut", torn, captures)
	}
	if st := l.State(); st.Counters.Settled != writers*perWriter {
		t.Errorf("settled %d, want %d", st.Counters.Settled, writers*perWriter)
	}
}
