package trajectory

import (
	"fmt"
	"path/filepath"

	"anonlead/internal/harness"
)

// Series is an ordered run of bench artifacts, oldest first — the
// cross-PR trajectory, or with two points the base-versus-head gate.
// Build one with NewSeries (in-memory artifacts) or LoadSeries (files),
// then classify per-metric movement with Trends.
type Series struct {
	// Labels name the series points in order (file basenames for
	// LoadSeries, indices otherwise).
	Labels    []string
	Artifacts []harness.Artifact
}

// NewSeries assembles a series from artifacts in chronological order.
// labels may be nil (points are then named by index); a series needs at
// least two points, otherwise there is no trajectory to classify.
func NewSeries(artifacts []harness.Artifact, labels []string) (Series, error) {
	if len(artifacts) < 2 {
		return Series{}, fmt.Errorf("trajectory: series needs >= 2 artifacts, got %d", len(artifacts))
	}
	if labels != nil && len(labels) != len(artifacts) {
		return Series{}, fmt.Errorf("trajectory: %d labels for %d artifacts", len(labels), len(artifacts))
	}
	s := Series{Artifacts: artifacts, Labels: labels}
	if s.Labels == nil {
		s.Labels = make([]string, len(artifacts))
		for i := range s.Labels {
			s.Labels[i] = fmt.Sprintf("#%d", i+1)
		}
	}
	return s, nil
}

// LoadSeries reads artifact files in chronological order (oldest first)
// and labels the points with the file basenames (disambiguated by index
// when names repeat, as they do for archived copies of the same
// BENCH_harness.json).
func LoadSeries(paths ...string) (Series, error) {
	artifacts := make([]harness.Artifact, len(paths))
	labels := make([]string, len(paths))
	seen := map[string]int{}
	for i, p := range paths {
		a, err := harness.ReadArtifactFile(p)
		if err != nil {
			return Series{}, err
		}
		artifacts[i] = a
		name := filepath.Base(p)
		seen[name]++
		if seen[name] > 1 {
			name = fmt.Sprintf("%s (%d)", name, seen[name])
		}
		labels[i] = name
	}
	return NewSeries(artifacts, labels)
}

// MetricTrend is one metric's trajectory on one aligned cell.
type MetricTrend struct {
	Metric string `json:"metric"`
	// Values holds the metric's per-artifact values in series order: the
	// mean for a cost, the rate for success_rate, the measured/predicted
	// ratio for msgs_vs_pred and time_vs_pred.
	Values []float64 `json:"values"`
	// First and Last are the endpoint values (Values[0] and Values[-1]).
	First float64 `json:"first"`
	Last  float64 `json:"last"`
	// RelDelta is (last-first)/|first| (0 when first is 0).
	RelDelta float64 `json:"rel_delta"`
	// StdErr is the Welch standard error of last-first (0 for the rate
	// and ratio metrics, and for zero-spread samples).
	StdErr float64 `json:"stderr"`
	// Steps classifies each adjacent pair of points (len = points-1): the
	// texture behind the net verdict, so a regression introduced three
	// artifacts ago is distinguishable from a slow drift.
	Steps []Status `json:"steps"`
	// Status is the net verdict, judged between the series endpoints
	// with the relative tolerance AND Welch standard errors (Wilson
	// disjointness for the success rate, DriftTol for the ratios), so it
	// is never called on trial noise.
	Status Status `json:"status"`
}

// CellTrend is one aligned cell's trajectory across all metrics.
type CellTrend struct {
	Key     Key           `json:"key"`
	Metrics []MetricTrend `json:"metrics"`
}

// SeriesReport is the full classification of a series.
type SeriesReport struct {
	Labels     []string    `json:"labels"`
	Thresholds Thresholds  `json:"thresholds"`
	Cells      []CellTrend `json:"cells"`
	// Removed lists one key per occurrence the oldest point has and the
	// newest lacks, in the oldest point's order — a shrunk sweep can hide
	// a regression, so the gate can fail on it.
	Removed []Key `json:"removed,omitempty"`
	// Partial lists cell keys whose occurrences are missing from at least
	// one series point (including duplicate occurrences that exist only
	// in some artifacts, even when the key's common occurrences are
	// tracked). They are reported, not classified — a cell that comes and
	// goes has no well-defined trajectory, and hiding it could hide a
	// regression.
	Partial []Key `json:"partial,omitempty"`
	// NewestPartial records that the newest point is a distributed-sweep
	// partial (an ArtifactPlan header covering less than its planned
	// matrix). Cells it lacks were likely never assigned to it, so the
	// Removed list is advisory.
	NewestPartial bool `json:"newest_partial,omitempty"`

	Improved  int `json:"improved"`
	Unchanged int `json:"unchanged"`
	Regressed int `json:"regressed"`
	// Drifted counts measured/predicted ratios that moved beyond DriftTol
	// between the endpoints.
	Drifted int `json:"drifted"`
}

// HasRegressions reports whether any metric's net verdict regressed.
func (r SeriesReport) HasRegressions() bool { return r.Regressed > 0 }

// HasDrift reports whether any measured/predicted ratio drifted.
func (r SeriesReport) HasDrift() bool { return r.Drifted > 0 }

// Trends aligns the series' cells across every artifact and classifies
// each metric's net trajectory. A cell occurrence is tracked only when
// present in every point (duplicate keys pair by occurrence index);
// tracked cells follow the first artifact's order.
func (s Series) Trends(th Thresholds) SeriesReport {
	th = th.withDefaults()
	last := len(s.Artifacts) - 1
	r := SeriesReport{Labels: s.Labels, Thresholds: th, NewestPartial: s.Artifacts[last].IsPartial()}

	// Per-artifact occurrence index: key -> cell indices in order.
	occ := make([]map[Key][]int, len(s.Artifacts))
	for i, a := range s.Artifacts {
		occ[i] = make(map[Key][]int, len(a.Cells))
		for j, c := range a.Cells {
			k := KeyOf(c)
			occ[i][k] = append(occ[i][k], j)
		}
	}

	// A key is partial when its occurrence count differs anywhere in the
	// series: occurrences beyond the common minimum exist in some points
	// but not all — whether the extras live in the first artifact, a later
	// one, or the key is absent somewhere entirely.
	partial := map[Key]bool{}
	maxOcc := map[Key]int{}
	for i := range s.Artifacts {
		for k, idxs := range occ[i] {
			if len(idxs) > maxOcc[k] {
				maxOcc[k] = len(idxs)
			}
		}
	}
	for k, mx := range maxOcc {
		mn := mx
		for i := range s.Artifacts {
			if l := len(occ[i][k]); l < mn {
				mn = l
			}
		}
		if mn != mx {
			partial[k] = true
		}
	}

	seen := map[Key]int{} // occurrences of key consumed from the first artifact
	for _, first := range s.Artifacts[0].Cells {
		k := KeyOf(first)
		j := seen[k]
		seen[k]++
		if j >= len(occ[last][k]) {
			r.Removed = append(r.Removed, k)
		}
		// The j-th occurrence must exist in every point of the series.
		cells := make([]harness.ArtifactCell, len(s.Artifacts))
		tracked := true
		for i := range s.Artifacts {
			idxs := occ[i][k]
			if j >= len(idxs) {
				tracked = false
				break
			}
			cells[i] = s.Artifacts[i].Cells[idxs[j]]
		}
		if !tracked {
			continue
		}
		ct := CellTrend{Key: k}
		for _, m := range metrics {
			mt, ok := metricTrend(m, cells, th)
			if !ok {
				continue
			}
			switch mt.Status {
			case Improved:
				r.Improved++
			case Regressed:
				r.Regressed++
			case Drifted:
				r.Drifted++
			default:
				r.Unchanged++
			}
			ct.Metrics = append(ct.Metrics, mt)
		}
		r.Cells = append(r.Cells, ct)
	}
	// Deterministic partial order: first appearance across the series.
	emitted := map[Key]bool{}
	for _, a := range s.Artifacts {
		for _, c := range a.Cells {
			k := KeyOf(c)
			if partial[k] && !emitted[k] {
				emitted[k] = true
				r.Partial = append(r.Partial, k)
			}
		}
	}
	return r
}

// metricTrend classifies one metric's trajectory over the aligned cells
// (one per series point): the net verdict compares the endpoints, Steps
// compare each adjacent pair. ok=false when the metric is undefined at
// some point (a ratio without a usable prediction).
func metricTrend(m metric, cells []harness.ArtifactCell, th Thresholds) (MetricTrend, bool) {
	net, ok := m.classify(cells[0], cells[len(cells)-1], th)
	if !ok {
		return MetricTrend{}, false
	}
	mt := MetricTrend{
		Metric:   m.name,
		Values:   []float64{net.Base},
		First:    net.Base,
		Last:     net.Head,
		RelDelta: net.RelDelta,
		StdErr:   net.StdErr,
		Status:   net.Status,
	}
	for i := 1; i < len(cells); i++ {
		step, ok := m.classify(cells[i-1], cells[i], th)
		if !ok {
			return MetricTrend{}, false
		}
		mt.Values = append(mt.Values, step.Head)
		mt.Steps = append(mt.Steps, step.Status)
	}
	return mt, true
}
