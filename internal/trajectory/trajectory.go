// Package trajectory compares bench artifacts across runs: it aligns the
// sweep cells of an ordered series of BENCH_harness.json files by workload
// identity and classifies each metric's movement as improved, unchanged,
// regressed or (for the measured/predicted ratios) drifted. A two-point
// series is the base-versus-head regression gate.
//
// The paper's guarantees are probabilistic (w.h.p. message/time bounds),
// so per-cell measurements carry real trial variance; a useful regression
// gate must separate effects from noise. The classifier therefore demands
// an effect exceed BOTH a relative tolerance and a multiple of the Welch
// standard error of the difference of means.
package trajectory

import (
	"fmt"
	"math"

	"anonlead/internal/harness"
	"anonlead/internal/stats"
)

// Key identifies a sweep cell across artifacts: the workload coordinates
// that make two cells comparable. Everything else (graph profile, trial
// counts, measurements) may legitimately differ between runs.
type Key struct {
	Protocol  string `json:"protocol"`
	Family    string `json:"family"`
	N         int    `json:"n"`
	PresumedN int    `json:"presumed_n,omitempty"`
	// Adversary is the fault-injection descriptor ("" = fault-free).
	Adversary string `json:"adversary,omitempty"`
	// ProfileMode is the resolved profile regime behind the cell's
	// tmix/Φ/diameter columns ("" = exact). An exact cell and an estimate
	// cell of the same workload measure against different predicted
	// bounds, so a regime switch reports as partial/removed rather than a
	// false cost regression.
	ProfileMode string `json:"profile_mode,omitempty"`
	// Scenario is the epoch scenario descriptor of a repeated-election
	// cell ("" = classic single election). A scenario cell's metrics are
	// multi-epoch totals, so a scenario switch reports as partial/removed
	// rather than a false cost regression.
	Scenario string `json:"scenario,omitempty"`
}

// KeyOf is the cell's alignment key. Duplicate keys within one artifact
// pair across artifacts by occurrence index.
func KeyOf(c harness.ArtifactCell) Key {
	return Key{Protocol: c.Protocol, Family: c.Family, N: c.N,
		PresumedN: c.PresumedN, Adversary: c.Adversary,
		ProfileMode: c.ProfileMode, Scenario: c.Scenario}
}

// String renders the key the way the rendered tables name cells.
func (k Key) String() string {
	s := fmt.Sprintf("%s %s/%d", k.Protocol, k.Family, k.N)
	if k.PresumedN > 0 && k.PresumedN != k.N {
		s += fmt.Sprintf(" (presumed n=%d)", k.PresumedN)
	}
	if k.Adversary != "" {
		s += fmt.Sprintf(" [%s]", k.Adversary)
	}
	if k.ProfileMode != "" {
		s += fmt.Sprintf(" {%s}", k.ProfileMode)
	}
	if k.Scenario != "" {
		s += fmt.Sprintf(" <%s>", k.Scenario)
	}
	return s
}

// Status classifies one metric of one aligned cell.
type Status string

// The classifications. For cost metrics lower is better; for the success
// rate higher is better — Regressed always means "got worse". Drifted is
// reserved for the predicted-vs-measured ratio metrics: the measurement
// moved away from (or toward) the paper's bound relative to the baseline
// by more than the drift tolerance, in either direction.
const (
	Improved  Status = "improved"
	Unchanged Status = "unchanged"
	Regressed Status = "regressed"
	Drifted   Status = "drifted"
)

// Thresholds tunes the classifier. The zero value selects the defaults.
type Thresholds struct {
	// RelTol is the minimum relative effect |head-base|/|base| to call a
	// change (default 0.05). Guards against flagging tiny absolute drifts
	// on metrics with near-zero variance.
	RelTol float64 `json:"rel_tol"`
	// Sigmas is the minimum effect in units of the Welch standard error
	// of the difference of means (default 3). Guards against flagging
	// trial noise.
	Sigmas float64 `json:"sigmas"`
	// DriftTol is the minimum relative change of a measured/predicted
	// ratio between two points to flag predicted-vs-measured drift
	// (default 0.25). Artifacts persist the paper-bound predictions
	// per cell, so this gate catches a cell walking away from its
	// complexity bound even when raw costs moved "legitimately".
	DriftTol float64 `json:"drift_tol"`
}

// withDefaults resolves zero fields to the default thresholds.
func (t Thresholds) withDefaults() Thresholds {
	if t.RelTol <= 0 {
		t.RelTol = 0.05
	}
	if t.Sigmas <= 0 {
		t.Sigmas = 3
	}
	if t.DriftTol <= 0 {
		t.DriftTol = 0.25
	}
	return t
}

// comparison is the classification of one metric between two points of
// a series (base older than head).
type comparison struct {
	// Base and Head are the per-trial means (the rate for success_rate,
	// the measured/predicted ratio for the drift metrics).
	Base, Head float64
	// RelDelta is (head-base)/|base|. When base is 0 it stays 0 and Status
	// alone carries the verdict.
	RelDelta float64
	// StdErr is the Welch standard error of head-base (0 when either side
	// has zero spread or fewer than two trials).
	StdErr float64
	Status Status
}

// metric is one per-cell metric a series classifies. classify compares it
// between two points; ok=false means the metric is undefined on that pair
// (a drift ratio without a usable prediction).
type metric struct {
	name     string
	classify func(base, head harness.ArtifactCell, th Thresholds) (d comparison, ok bool)
}

func costMetric(name string, dist func(harness.ArtifactCell) stats.Dist) metric {
	return metric{name, func(base, head harness.ArtifactCell, th Thresholds) (comparison, bool) {
		return classifyCost(dist(base), dist(head), th), true
	}}
}

func driftMetric(name string, ratio func(harness.ArtifactCell) (measured, predicted float64)) metric {
	return metric{name, func(base, head harness.ArtifactCell, th Thresholds) (comparison, bool) {
		baseMeas, basePred := ratio(base)
		headMeas, headPred := ratio(head)
		return classifyDrift(baseMeas, basePred, headMeas, headPred, th)
	}}
}

// metrics lists the classified metrics in report order: the four
// lower-is-better costs (a cell without a dist rehydrates to zero spread),
// the success rate, and the measured/predicted ratios pairing the paper's
// message bound with mean messages and its time bound with mean rounds.
var metrics = []metric{
	costMetric("messages", func(c harness.ArtifactCell) stats.Dist { return c.MessagesDist.Dist(c.Trials, c.Messages) }),
	costMetric("bits", func(c harness.ArtifactCell) stats.Dist { return c.BitsDist.Dist(c.Trials, c.Bits) }),
	costMetric("rounds", func(c harness.ArtifactCell) stats.Dist { return c.RoundsDist.Dist(c.Trials, c.Rounds) }),
	costMetric("charged", func(c harness.ArtifactCell) stats.Dist { return c.ChargedDist.Dist(c.Trials, c.Charged) }),
	{"success_rate", func(base, head harness.ArtifactCell, _ Thresholds) (comparison, bool) {
		return classifySuccess(base, head), true
	}},
	driftMetric("msgs_vs_pred", func(c harness.ArtifactCell) (float64, float64) { return c.Messages, c.PredictedMsgs }),
	driftMetric("time_vs_pred", func(c harness.ArtifactCell) (float64, float64) { return c.Rounds, c.PredictedTime }),
}

// classifyCost compares one lower-is-better metric. A change is called
// only when the effect clears the relative tolerance AND Sigmas standard
// errors of the difference.
func classifyCost(base, head stats.Dist, th Thresholds) comparison {
	d := comparison{Base: base.Mean, Head: head.Mean, Status: Unchanged}
	delta := head.Mean - base.Mean
	if base.Mean != 0 {
		d.RelDelta = delta / math.Abs(base.Mean)
	}
	d.StdErr = stats.WelchStdErr(base, head)
	if delta == 0 {
		return d
	}
	// Relative gate; a metric appearing from zero is always a change.
	if base.Mean != 0 && math.Abs(delta) <= th.RelTol*math.Abs(base.Mean) {
		return d
	}
	// Variance gate (vacuous for zero-variance samples).
	if math.Abs(delta) <= th.Sigmas*d.StdErr {
		return d
	}
	if delta > 0 {
		d.Status = Regressed
	} else {
		d.Status = Improved
	}
	return d
}

// classifySuccess compares the success rate (higher is better) by Wilson
// interval disjointness over the cells' successes and trials.
func classifySuccess(base, head harness.ArtifactCell) comparison {
	baseRate, headRate := rate(base), rate(head)
	d := comparison{Base: baseRate, Head: headRate, Status: Unchanged}
	if baseRate != 0 {
		d.RelDelta = (headRate - baseRate) / baseRate
	}
	baseLo, baseHi := stats.Wilson(base.Successes, base.Trials)
	headLo, headHi := stats.Wilson(head.Successes, head.Trials)
	switch {
	case headHi < baseLo:
		d.Status = Regressed
	case headLo > baseHi:
		d.Status = Improved
	}
	return d
}

func rate(c harness.ArtifactCell) float64 {
	if c.Trials == 0 {
		return 0
	}
	return float64(c.Successes) / float64(c.Trials)
}

// classifyDrift compares one measured/predicted ratio between base and
// head. A cell whose ratio moves by more than DriftTol relative to its
// baseline ratio is Drifted — the measurement walked away from (or
// toward) the paper's bound, a different signal than a raw cost change.
// Returns ok=false when either side lacks a usable prediction (ratio
// undefined), in which case no metric is emitted.
func classifyDrift(baseMeas, basePred, headMeas, headPred float64, th Thresholds) (comparison, bool) {
	if basePred <= 0 || headPred <= 0 || baseMeas <= 0 || headMeas <= 0 {
		return comparison{}, false
	}
	baseRatio, headRatio := baseMeas/basePred, headMeas/headPred
	d := comparison{Base: baseRatio, Head: headRatio, Status: Unchanged}
	d.RelDelta = (headRatio - baseRatio) / baseRatio
	if math.Abs(d.RelDelta) > th.DriftTol {
		d.Status = Drifted
	}
	return d, true
}
