package adaptive

import (
	"fmt"
	"math"

	"idlereduce/internal/skirental"
)

// StreamConfig parameterizes a Tracker: the streaming per-area
// estimator that idled's observe endpoint feeds. It reuses the
// adaptive policy's exponentially-weighted sufficient statistics and
// the CUSUM drift detector, but carries no playing policy — the
// serving strategies live in the daemon's cache and are re-derived
// from the tracker's estimates when the detector alarms.
type StreamConfig struct {
	// B is the break-even interval (seconds) the moments are measured
	// against: mu accumulates y·1{y <= B}, q counts 1{y > B}.
	B float64
	// Forgetting is the exponential decay per observation in (0, 1];
	// 1 (default) keeps the plain running average.
	Forgetting float64
	// MinObservations is the warmup: estimates are not trusted (and
	// re-tunes are suppressed) before this many stops. Default 50.
	MinObservations int
	// Drift parameterizes the CUSUM detector on the capped stop length
	// min(y, B); the zero value takes the DriftConfig defaults.
	Drift DriftConfig
}

func (c *StreamConfig) fill() error {
	if !positiveFinite(c.B) {
		return fmt.Errorf("%w: B = %v", ErrConfig, c.B)
	}
	if c.Forgetting == 0 {
		c.Forgetting = 1
	}
	if !(c.Forgetting > 0 && c.Forgetting <= 1) {
		return fmt.Errorf("%w: forgetting %v", ErrConfig, c.Forgetting)
	}
	if c.MinObservations == 0 {
		c.MinObservations = 50
	}
	if c.MinObservations < 1 {
		return fmt.Errorf("%w: min observations %d", ErrConfig, c.MinObservations)
	}
	return c.Drift.fill()
}

// TrackerState is the serializable state of a Tracker: the
// exponentially-weighted sufficient statistics plus the CUSUM detector
// internals. It is what idled's state-plane snapshot carries per area,
// so a restored replica resumes the stream exactly where the donor
// left off.
type TrackerState struct {
	// Seen counts observations since the tracker (or its area's
	// break-even interval) was reset.
	Seen int64 `json:"seen"`
	// WSum/MuSum/QSum are the weighted sufficient statistics: total
	// weight, sum of y·1{y <= B}, and count of 1{y > B}.
	WSum  float64 `json:"w_sum"`
	MuSum float64 `json:"mu_sum"`
	QSum  float64 `json:"q_sum"`
	// Detector is the CUSUM state.
	Detector DetectorState `json:"detector"`
}

// Validate rejects non-finite or structurally impossible state, so a
// corrupted snapshot fails closed instead of poisoning the stream.
func (s TrackerState) Validate() error {
	for _, v := range []float64{s.WSum, s.MuSum, s.QSum} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("%w: tracker sums (%v, %v, %v)", ErrConfig, s.WSum, s.MuSum, s.QSum)
		}
	}
	if s.Seen < 0 {
		return fmt.Errorf("%w: tracker seen %d", ErrConfig, s.Seen)
	}
	if s.Seen == 0 && s.WSum != 0 {
		return fmt.Errorf("%w: tracker weight %v with no observations", ErrConfig, s.WSum)
	}
	return s.Detector.Validate()
}

// DetectorState is the serializable CUSUM detector state.
type DetectorState struct {
	N          int     `json:"n"`
	Mean       float64 `json:"mean"`
	M2         float64 `json:"m2"`
	BaselineN  int     `json:"baseline_n"`
	SPos       float64 `json:"s_pos"`
	SNeg       float64 `json:"s_neg"`
	Monitoring bool    `json:"monitoring"`
}

// Validate rejects non-finite or structurally impossible state.
func (s DetectorState) Validate() error {
	for _, v := range []float64{s.Mean, s.M2, s.SPos, s.SNeg} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: detector value %v", ErrConfig, v)
		}
	}
	if s.N < 0 || s.BaselineN < 0 || s.M2 < 0 || s.SPos < 0 || s.SNeg < 0 {
		return fmt.Errorf("%w: detector state %+v", ErrConfig, s)
	}
	if s.Monitoring && s.N < 2 {
		return fmt.Errorf("%w: monitoring with n = %d", ErrConfig, s.N)
	}
	return nil
}

// State exports the detector internals for snapshotting.
func (d *Detector) State() DetectorState {
	return DetectorState{
		N: d.n, Mean: d.mean, M2: d.m2, BaselineN: d.baselineN,
		SPos: d.sPos, SNeg: d.sNeg, Monitoring: d.monitoring,
	}
}

// RestoreState replaces the detector internals from a validated
// snapshot.
func (d *Detector) RestoreState(s DetectorState) error {
	if err := s.Validate(); err != nil {
		return err
	}
	d.n, d.mean, d.m2, d.baselineN = s.N, s.Mean, s.M2, s.BaselineN
	d.sPos, d.sNeg, d.monitoring = s.SPos, s.SNeg, s.Monitoring
	return nil
}

// StepMoments applies one observation to the exponentially-weighted
// sufficient statistics and returns the successors. It is the pure
// transition function of the observe stream: idled's audit replay
// re-derives each recorded observe transition with it and requires
// bit-identical results, the same way decide records replay through
// their engine.
func StepMoments(wSum, muSum, qSum, forgetting, b, y float64) (w2, mu2, q2 float64) {
	w2 = forgetting*wSum + 1
	mu2 = forgetting * muSum
	q2 = forgetting * qSum
	if y > b {
		q2++
	} else {
		mu2 += y
	}
	return w2, mu2, q2
}

// momentStats derives the constrained estimates (mu_B-, q_B+) from the
// weighted sufficient statistics; zero before any observation.
func momentStats(wSum, muSum, qSum float64) skirental.Stats {
	if wSum == 0 {
		return skirental.Stats{}
	}
	return skirental.Stats{MuBMinus: muSum / wSum, QBPlus: qSum / wSum}
}

// Tracker is the streaming per-area estimator: exponentially-weighted
// constrained moments plus a CUSUM drift detector on the capped stop
// length. It is deliberately dumb about concurrency — the caller
// (idled's per-area slot) serializes Observe calls, so the stream
// stays a deterministic function of the observation sequence.
type Tracker struct {
	cfg   StreamConfig
	state TrackerState
	det   *Detector
}

// NewTracker builds a tracker.
func NewTracker(cfg StreamConfig) (*Tracker, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	det, err := NewDetector(cfg.Drift)
	if err != nil {
		return nil, err
	}
	return &Tracker{cfg: cfg, det: det}, nil
}

// B returns the break-even interval the moments are measured against.
func (t *Tracker) B() float64 { return t.cfg.B }

// Seen returns the number of observations absorbed.
func (t *Tracker) Seen() int64 { return t.state.Seen }

// Warm reports whether the estimates have absorbed MinObservations.
func (t *Tracker) Warm() bool { return t.state.Seen >= int64(t.cfg.MinObservations) }

// Stats returns the current constrained estimates (zero before any
// observation). The pair is feasible by construction: every counted
// short stop is at most B, so mu <= B·(1-q) always holds.
func (t *Tracker) Stats() skirental.Stats {
	return momentStats(t.state.WSum, t.state.MuSum, t.state.QSum)
}

// State exports the tracker for snapshotting.
func (t *Tracker) State() TrackerState {
	s := t.state
	s.Detector = t.det.State()
	return s
}

// RestoreState replaces the tracker state from a validated snapshot.
func (t *Tracker) RestoreState(s TrackerState) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if err := t.det.RestoreState(s.Detector); err != nil {
		return err
	}
	s.Detector = DetectorState{}
	t.state = s
	return nil
}

// StreamUpdate reports the outcome of one observation.
type StreamUpdate struct {
	// Seen is the observation's 1-based sequence number.
	Seen int64
	// PrevWSum/PrevMuSum/PrevQSum are the sufficient statistics BEFORE
	// the observation; WSum/MuSum/QSum after. Together with StepMoments
	// they make every transition independently re-derivable from its
	// audit record.
	PrevWSum, PrevMuSum, PrevQSum float64
	WSum, MuSum, QSum             float64
	// Stats are the estimates after the observation.
	Stats skirental.Stats
	// Warm reports whether MinObservations have been absorbed.
	Warm bool
	// Alarm reports a CUSUM drift alarm on this observation. The
	// detector re-baselines itself; resetting the moment estimates is
	// the caller's re-tune decision.
	Alarm bool
}

// Observe absorbs one completed stop of length y (seconds). Invalid
// lengths are rejected without mutating any state.
func (t *Tracker) Observe(y float64) (StreamUpdate, error) {
	if !t.Admits(y) {
		return StreamUpdate{}, fmt.Errorf("%w: stop length %v", ErrConfig, y)
	}
	up := StreamUpdate{
		PrevWSum:  t.state.WSum,
		PrevMuSum: t.state.MuSum,
		PrevQSum:  t.state.QSum,
	}
	t.state.WSum, t.state.MuSum, t.state.QSum = StepMoments(
		t.state.WSum, t.state.MuSum, t.state.QSum, t.cfg.Forgetting, t.cfg.B, y)
	t.state.Seen++
	up.Seen = t.state.Seen
	up.WSum, up.MuSum, up.QSum = t.state.WSum, t.state.MuSum, t.state.QSum
	up.Stats = t.Stats()
	up.Warm = t.Warm()
	up.Alarm = t.det.Observe(math.Min(y, t.cfg.B))
	return up, nil
}

// Admits reports whether Observe accepts y: a finite non-negative stop
// length that keeps every moment sum and the drift detector's state
// finite. At a break-even interval near float64's limit a stop of that
// length overflows the sums, and once B passes ~1.34e154 s the squared
// deviation of a capped stop can overflow the detector's running sum.
// A caller that commits elsewhere before the stream absorbs y checks
// it first.
func (t *Tracker) Admits(y float64) bool {
	if y < 0 || math.IsNaN(y) || math.IsInf(y, 0) {
		return false
	}
	w, mu, q := StepMoments(t.state.WSum, t.state.MuSum, t.state.QSum, t.cfg.Forgetting, t.cfg.B, y)
	if math.IsInf(w, 0) || math.IsInf(mu, 0) || math.IsInf(q, 0) {
		return false
	}
	det := *t.det // a copy: observing it leaves the stream untouched
	det.Observe(math.Min(y, t.cfg.B))
	return det.State().Validate() == nil
}

// ResetMoments clears the moment estimates (a post-re-tune restart for
// a new regime) while keeping the observation counter monotonic and
// the detector's fresh baseline intact.
func (t *Tracker) ResetMoments() {
	t.state.WSum, t.state.MuSum, t.state.QSum = 0, 0, 0
}
