package trajectory

import (
	"strings"
	"testing"

	"anonlead/internal/harness"
)

// cell builds an artifact cell with a given mean/stddev on every cost
// metric and a success count.
func cell(proto, family string, n, trials, successes int, mean, stddev float64) harness.ArtifactCell {
	dist := func() *harness.ArtifactDist {
		return &harness.ArtifactDist{
			StdDev: stddev, Min: mean - stddev, Max: mean + stddev,
			P50: mean, P90: mean + stddev, P99: mean + stddev,
		}
	}
	return harness.ArtifactCell{
		Protocol: proto, Family: family, N: n,
		Trials: trials, Successes: successes,
		Messages: mean, Bits: mean, Rounds: mean, Charged: mean,
		MessagesDist: dist(), BitsDist: dist(), RoundsDist: dist(), ChargedDist: dist(),
	}
}

func artifact(schema string, cells ...harness.ArtifactCell) harness.Artifact {
	return harness.Artifact{Schema: schema, Cells: cells}
}

// pair classifies the two-point series base → head: the regression gate.
func pair(t *testing.T, base, head harness.Artifact, th Thresholds) SeriesReport {
	t.Helper()
	s, err := NewSeries([]harness.Artifact{base, head}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s.Trends(th)
}

func TestDiffIdenticalArtifactsUnchanged(t *testing.T) {
	a := artifact(harness.ArtifactSchema,
		cell("ire", "expander", 64, 10, 10, 1000, 50),
		cell("flood", "complete", 32, 10, 10, 400, 0))
	r := pair(t, a, a, Thresholds{})
	if r.Regressed != 0 || r.Improved != 0 || r.Drifted != 0 {
		t.Fatalf("identical artifacts classified as changed: %+v", r)
	}
	if r.Unchanged != 2*5 { // 4 cost metrics + success per cell, no predictions
		t.Fatalf("unchanged count %d", r.Unchanged)
	}
	if len(r.Removed) != 0 || len(r.Partial) != 0 {
		t.Fatalf("phantom removed/partial: %+v", r)
	}
}

func TestDiffFlagsLargeRegression(t *testing.T) {
	base := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 10, 1000, 50))
	head := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 10, 2000, 50))
	r := pair(t, base, head, Thresholds{})
	if !r.HasRegressions() {
		t.Fatalf("2x cost increase not flagged: %+v", r)
	}
	// All four cost metrics doubled; success rate unchanged.
	if r.Regressed != 4 {
		t.Fatalf("regressed count %d, want 4", r.Regressed)
	}
	mt := r.Cells[0].Metrics[0]
	if mt.Metric != "messages" || mt.Status != Regressed || mt.RelDelta != 1 {
		t.Fatalf("messages trend %+v", mt)
	}
	if len(mt.Steps) != 1 || mt.Steps[0] != Regressed {
		t.Fatalf("two-point steps %v", mt.Steps)
	}
	if mt.StdErr <= 0 {
		t.Fatalf("pair with distributions should carry a Welch stderr: %+v", mt)
	}
}

func TestDiffFlagsImprovement(t *testing.T) {
	base := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 10, 1000, 10))
	head := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 10, 500, 10))
	r := pair(t, base, head, Thresholds{})
	if r.Improved != 4 || r.Regressed != 0 {
		t.Fatalf("halved cost not improved: %+v", r)
	}
}

// TestDiffVarianceGate pins the classifier's core property: an effect that
// clears the relative tolerance but sits inside trial noise stays
// unchanged.
func TestDiffVarianceGate(t *testing.T) {
	// 10% effect, but stddev 400 over 4 trials => stderr ~283 per side,
	// Welch ~400, 3σ gate ~1200 >> 100.
	base := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 4, 4, 1000, 400))
	head := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 4, 4, 1100, 400))
	r := pair(t, base, head, Thresholds{})
	if r.Regressed != 0 {
		t.Fatalf("noise flagged as regression: %+v", r)
	}
	// The same 10% effect with tight variance IS a regression.
	base = artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 4, 4, 1000, 1))
	head = artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 4, 4, 1100, 1))
	if r = pair(t, base, head, Thresholds{}); r.Regressed != 4 {
		t.Fatalf("tight-variance effect not flagged: %+v", r)
	}
}

// TestDiffRelativeToleranceGate: a statistically crisp but tiny effect
// stays unchanged.
func TestDiffRelativeToleranceGate(t *testing.T) {
	base := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 10, 1000, 0))
	head := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 10, 1010, 0))
	r := pair(t, base, head, Thresholds{})
	if r.Regressed != 0 {
		t.Fatalf("1%% drift flagged under 5%% tolerance: %+v", r)
	}
	if r = pair(t, base, head, Thresholds{RelTol: 0.005}); r.Regressed != 4 {
		t.Fatalf("1%% drift not flagged under 0.5%% tolerance: %+v", r)
	}
}

// TestDiffNilDistsGateOnRelTol: a cell without distributions rehydrates
// to zero spread, so the Welch gate is vacuous and the relative tolerance
// alone decides.
func TestDiffNilDistsGateOnRelTol(t *testing.T) {
	bare := harness.ArtifactCell{
		Protocol: "ire", Family: "expander", N: 64,
		Trials: 10, Successes: 10,
		Messages: 1000, Bits: 1000, Rounds: 1000, Charged: 1000,
	}
	doubled := bare
	doubled.Messages = 2000
	r := pair(t, artifact(harness.ArtifactSchema, bare), artifact(harness.ArtifactSchema, doubled), Thresholds{})
	if r.Regressed != 1 {
		t.Fatalf("2x effect without dists not flagged: %+v", r)
	}
	if mt := r.Cells[0].Metrics[0]; mt.StdErr != 0 {
		t.Fatalf("dist-less pair grew a stderr: %+v", mt)
	}
}

func TestDiffSuccessRateWilson(t *testing.T) {
	// 10/10 -> 9/10: Wilson intervals overlap, no verdict.
	base := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 10, 100, 1))
	head := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 9, 100, 1))
	r := pair(t, base, head, Thresholds{})
	if r.Regressed != 0 {
		t.Fatalf("one lost trial flagged: %+v", r)
	}
	// 50/50 -> 5/50: intervals disjoint, regression.
	base = artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 50, 50, 100, 1))
	head = artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 50, 5, 100, 1))
	r = pair(t, base, head, Thresholds{})
	if r.Regressed != 1 {
		t.Fatalf("success collapse not flagged: %+v", r)
	}
	got := r.Cells[0].Metrics[len(r.Cells[0].Metrics)-1]
	if got.Metric != "success_rate" || got.Status != Regressed || got.First != 1 || got.Last != 0.1 {
		t.Fatalf("success metric trend %+v", got)
	}
}

// TestDiffSuccessCollapseAtGateTrialCounts guards the gate's sensitivity
// floor: at every trial count the quick sweeps actually use (6 for
// revocable, 8 for table1), a total success collapse k/k -> 0/k must
// separate the Wilson intervals and be flagged. At 3 trials the intervals
// still overlap — which is why no gate cell runs fewer than 6.
func TestDiffSuccessCollapseAtGateTrialCounts(t *testing.T) {
	for _, trials := range []int{6, 8} {
		base := artifact(harness.ArtifactSchema, cell("revocable", "complete", 6, trials, trials, 100, 1))
		head := artifact(harness.ArtifactSchema, cell("revocable", "complete", 6, trials, 0, 100, 1))
		if r := pair(t, base, head, Thresholds{}); r.Regressed != 1 {
			t.Fatalf("total collapse at %d trials not flagged: %+v", trials, r)
		}
	}
}

// TestDiffZeroBaseRegresses: a metric appearing from zero is always a
// change, with no finite relative delta.
func TestDiffZeroBaseRegresses(t *testing.T) {
	base := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 10, 0, 0))
	head := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 10, 10, 50, 0))
	r := pair(t, base, head, Thresholds{})
	if r.Regressed != 4 {
		t.Fatalf("metric appearing from zero not flagged: %+v", r)
	}
	if mt := r.Cells[0].Metrics[0]; mt.First != 0 || mt.Last != 50 || mt.RelDelta != 0 {
		t.Fatalf("zero-base trend %+v", mt)
	}
}

// TestDiffCellAlignment covers removed and added cells and key identity
// including presumed_n.
func TestDiffCellAlignment(t *testing.T) {
	removed := cell("flood", "complete", 32, 5, 5, 400, 1)
	kept := cell("ire", "expander", 64, 5, 5, 1000, 1)
	added := cell("ire", "cycle", 16, 5, 5, 50, 1)
	presumed := cell("ire", "expander", 64, 5, 5, 900, 1)
	presumed.PresumedN = 128 // distinct key from kept despite same (proto, family, n)

	base := artifact(harness.ArtifactSchema, kept, removed, presumed)
	head := artifact(harness.ArtifactSchema, kept, added, presumed)
	r := pair(t, base, head, Thresholds{})
	if len(r.Cells) != 2 {
		t.Fatalf("aligned cells %d, want 2", len(r.Cells))
	}
	if len(r.Removed) != 1 || r.Removed[0] != (Key{Protocol: "flood", Family: "complete", N: 32}) {
		t.Fatalf("removed %+v", r.Removed)
	}
	// Both one-sided cells are partial; only the base-side one is removed.
	if len(r.Partial) != 2 || r.Partial[1] != (Key{Protocol: "ire", Family: "cycle", N: 16}) {
		t.Fatalf("partial %+v", r.Partial)
	}
	if r.Cells[1].Key.PresumedN != 128 {
		t.Fatalf("presumed cell misaligned: %+v", r.Cells[1].Key)
	}
	if r.Regressed != 0 {
		t.Fatalf("alignment produced spurious regressions: %+v", r)
	}
}

func TestDiffDuplicateKeysPairByOccurrence(t *testing.T) {
	a := cell("ire", "cycle", 16, 5, 5, 100, 1)
	b := cell("ire", "cycle", 16, 5, 5, 200, 1)
	base := artifact(harness.ArtifactSchema, a, b)
	head := artifact(harness.ArtifactSchema, a, b, b)
	r := pair(t, base, head, Thresholds{})
	if len(r.Cells) != 2 || r.Regressed != 0 {
		t.Fatalf("duplicate keys misaligned: %+v", r)
	}
	if len(r.Partial) != 1 || len(r.Removed) != 0 {
		t.Fatalf("extra head duplicate not reported partial only: %+v", r)
	}
	// The mirror: the head lost an occurrence, which the gate sees.
	if r = pair(t, head, base, Thresholds{}); len(r.Removed) != 1 || r.Removed[0].Family != "cycle" {
		t.Fatalf("lost duplicate occurrence not removed: %+v", r.Removed)
	}
}

// TestDiffRealArtifactsSelf classifies a real orchestrated sweep against
// itself: the full pipeline (run -> artifact -> series) must come back
// clean.
func TestDiffRealArtifactsSelf(t *testing.T) {
	specs := []harness.CellSpec{
		{Protocol: harness.ProtoIRE, Workload: harness.Workload{Family: "complete", N: 16},
			Opts: harness.TrialOpts{Trials: 3, Seed: 7}},
		{Protocol: harness.ProtoFlood, Workload: harness.Workload{Family: "cycle", N: 12},
			Opts: harness.TrialOpts{Trials: 3, Seed: 7}},
	}
	o := harness.Orchestrator{Workers: 2}
	cells, err := o.RunSweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	a := harness.NewArtifact(o, specs, cells, 0)
	r := pair(t, a, a, Thresholds{})
	if r.Regressed != 0 || r.Improved != 0 || r.Drifted != 0 || len(r.Removed)+len(r.Partial) != 0 {
		t.Fatalf("self-series not clean: %+v", r)
	}
	// Real cells carry predictions, so both drift ratios are classified.
	if got := len(r.Cells[0].Metrics); got != 7 {
		t.Fatalf("%d metrics per real cell, want 7", got)
	}
}

// TestAdversaryKeyAlignment: cells identical except for the adversary
// descriptor are distinct sweep cells — a faulted cell never pairs with
// its fault-free sibling.
func TestAdversaryKeyAlignment(t *testing.T) {
	plain := cell("ire", "expander", 64, 5, 5, 100, 1)
	faulted := cell("ire", "expander", 64, 5, 3, 40, 1)
	faulted.Adversary = "loss=0.1"
	base := artifact(harness.ArtifactSchema, plain, faulted)

	// Head with the same two cells: both align by key, nothing partial.
	r := pair(t, base, base, Thresholds{})
	if len(r.Cells) != 2 || len(r.Partial) != 0 {
		t.Fatalf("self-alignment wrong: %+v", r)
	}
	if r.Cells[1].Key.Adversary != "loss=0.1" {
		t.Fatalf("faulted key lost its adversary: %+v", r.Cells[1].Key)
	}
	if !strings.Contains(r.Cells[1].Key.String(), "[loss=0.1]") {
		t.Fatalf("key render missing adversary: %s", r.Cells[1].Key)
	}

	// Dropping the faulted cell from head reports it removed, not merged
	// into the fault-free cell.
	head := artifact(harness.ArtifactSchema, plain)
	r = pair(t, base, head, Thresholds{})
	if len(r.Cells) != 1 || len(r.Removed) != 1 || r.Removed[0].Adversary != "loss=0.1" {
		t.Fatalf("faulted cell not tracked separately: %+v", r)
	}
}

// TestProfileModeKeyAlignment: a cell whose profile regime switched between
// base and head (exact → estimate, e.g. a sweep crossing the auto threshold)
// reports as removed plus partial, never as a cost regression against the
// other-regime sibling.
func TestProfileModeKeyAlignment(t *testing.T) {
	exact := cell("ire", "expander", 300, 5, 5, 100, 1)
	est := cell("ire", "expander", 300, 5, 5, 180, 1)
	est.ProfileMode = "estimate"

	// Same workload, different regime: no pairing, no regression.
	r := pair(t, artifact(harness.ArtifactSchema, exact), artifact(harness.ArtifactSchema, est), Thresholds{})
	if len(r.Cells) != 0 || r.Regressed != 0 {
		t.Fatalf("regime switch falsely aligned: %+v", r)
	}
	if len(r.Removed) != 1 || r.Removed[0].ProfileMode != "" {
		t.Fatalf("exact cell not reported removed: %+v", r.Removed)
	}
	if len(r.Partial) != 2 || r.Partial[1].ProfileMode != "estimate" {
		t.Fatalf("estimate cell not reported partial: %+v", r.Partial)
	}
	if !strings.Contains(r.Partial[1].String(), "{estimate}") {
		t.Fatalf("key render missing profile mode: %s", r.Partial[1])
	}

	// Same regime on both sides still aligns cleanly, keeping the mode.
	r = pair(t, artifact(harness.ArtifactSchema, est), artifact(harness.ArtifactSchema, est), Thresholds{})
	if len(r.Cells) != 1 || len(r.Removed)+len(r.Partial) != 0 {
		t.Fatalf("estimate self-alignment wrong: %+v", r)
	}
	if r.Cells[0].Key.ProfileMode != "estimate" {
		t.Fatalf("aligned key lost its mode: %+v", r.Cells[0].Key)
	}
}

// predCell attaches predictions to a cell so the drift classifier engages.
func predCell(mean, predMsgs, predTime float64) harness.ArtifactCell {
	c := cell("ire", "expander", 64, 5, 5, mean, 1)
	c.PredictedMsgs, c.PredictedTime = predMsgs, predTime
	return c
}

// TestDriftClassification: the measured/predicted ratio gates on its own
// tolerance, in both directions, independently of the cost classifier.
func TestDriftClassification(t *testing.T) {
	base := artifact(harness.ArtifactSchema, predCell(100, 50, 50))
	// Same measurement, same predictions: no drift.
	r := pair(t, base, base, Thresholds{})
	if r.Drifted != 0 || r.HasDrift() {
		t.Fatalf("self-series drifted: %+v", r)
	}
	found := 0
	for _, mt := range r.Cells[0].Metrics {
		if mt.Metric == "msgs_vs_pred" || mt.Metric == "time_vs_pred" {
			found++
			if mt.First != 2 || mt.Last != 2 || mt.Status != Unchanged {
				t.Fatalf("drift metric wrong: %+v", mt)
			}
		}
	}
	if found != 2 {
		t.Fatalf("drift metrics missing (%d found)", found)
	}

	// Head ratio moves 2x (measured doubled, predictions fixed): drift in
	// the away-from-bound direction.
	head := artifact(harness.ArtifactSchema, predCell(200, 50, 50))
	r = pair(t, base, head, Thresholds{})
	if r.Drifted != 2 || !r.HasDrift() {
		t.Fatalf("2x ratio change not flagged: %+v", r)
	}
	// Toward-the-bound movement drifts too (the ratio is a calibration,
	// not a cost).
	headDown := artifact(harness.ArtifactSchema, predCell(40, 50, 50))
	if r = pair(t, base, headDown, Thresholds{}); r.Drifted != 2 {
		t.Fatalf("toward-bound drift not flagged: %+v", r)
	}
	// A wide tolerance clears it.
	if r = pair(t, base, head, Thresholds{DriftTol: 1.5}); r.Drifted != 0 {
		t.Fatalf("drift flagged despite wide tolerance: %+v", r)
	}
	// Cells without predictions emit no drift metrics at all.
	noPred := artifact(harness.ArtifactSchema, cell("ire", "expander", 64, 5, 5, 100, 1))
	r = pair(t, noPred, noPred, Thresholds{})
	for _, mt := range r.Cells[0].Metrics {
		if mt.Metric == "msgs_vs_pred" || mt.Metric == "time_vs_pred" {
			t.Fatalf("drift metric emitted without predictions: %+v", mt)
		}
	}
	// Nor does a series where a middle point lacks them.
	s, err := NewSeries([]harness.Artifact{base, noPred, head}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r = s.Trends(Thresholds{}); len(r.Cells[0].Metrics) != 5 || r.Drifted != 0 {
		t.Fatalf("ratio classified across a point without predictions: %+v", r.Cells[0].Metrics)
	}
}
