package predict

import "idlereduce/internal/obs"

// Quality metric names, published by POST /v1/observe and described in
// docs/OBSERVABILITY.md.
const (
	// MetricErrAbs is the absolute prediction error histogram
	// (|predicted - actual| seconds); a per-area labelled twin is
	// published alongside it.
	MetricErrAbs = "predict_err_abs_sec"
	// MetricErrSigned is the signed error histogram
	// (predicted - actual): its mean exposes systematic bias.
	MetricErrSigned = "predict_err_signed_sec"
	// MetricConsistency counts predictions on the correct side of the
	// break-even interval — stops where trusting the advice pays.
	MetricConsistency = "predict_consistency_total"
	// MetricRegret counts predictions on the wrong side — stops where
	// trusting the advice costs and only the robustness clamp bounds
	// the damage.
	MetricRegret = "predict_regret_total"
)

// AreaErrAbs names an area's labelled twin of MetricErrAbs,
// predict_err_abs_sec{area="..."}.
func AreaErrAbs(area string) string { return obs.L(MetricErrAbs, "area", area) }

// RecordQuality publishes one prediction-vs-outcome pair of an
// observed area to the metrics recorder: the error histograms (global,
// plus areaErr, the area's AreaErrAbs histogram, which the caller
// resolves once per area so no observe formats its name) and the
// consistency/regret side counters. Its one caller is POST /v1/observe,
// for observations that carry the forecast made for the stop; rec
// nil-checks like every obs sink, and a nil areaErr is skipped.
func RecordQuality(rec *obs.Recorder, areaErr *obs.Histogram, b, predicted, actual float64) {
	if !rec.On() {
		return
	}
	err := predicted - actual
	abs := err
	if abs < 0 {
		abs = -abs
	}
	rec.Observe(MetricErrAbs, abs)
	rec.Observe(MetricErrSigned, err)
	if areaErr != nil {
		areaErr.Observe(abs)
	}
	// Side agreement is what decides whether advice helps: the blend
	// only needs the forecast on the correct side of B, not its exact
	// value.
	if (predicted >= b) == (actual >= b) {
		rec.Add(MetricConsistency, 1)
	} else {
		rec.Add(MetricRegret, 1)
	}
}
