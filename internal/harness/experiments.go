package harness

import (
	"context"
	"fmt"
	"math"

	"anonlead"
	"anonlead/internal/core"
	"anonlead/internal/graph"
	"anonlead/internal/pumping"
	"anonlead/internal/spectral"
	"anonlead/internal/stats"
)

// Table1Row is one measured cell of the Table 1 reproduction, paired with
// the paper's predicted complexity for the same cell.
type Table1Row struct {
	Cell Cell
	// PredictedMsgs is the paper's message-bound formula evaluated on the
	// measured graph profile (without its polylog factors and constants).
	PredictedMsgs float64
	// PredictedTime is the paper's time-bound formula, same convention.
	PredictedTime float64
}

// predictMsgs evaluates the leading message term of each protocol's bound.
func predictMsgs(p Protocol, prof *spectral.Profile) float64 {
	n := float64(prof.N)
	tmix := float64(prof.MixingTime)
	switch p {
	case ProtoIRE: // Õ(√(n·tmix/Φ))
		return math.Sqrt(n * tmix / prof.Conductance)
	case ProtoExplicit: // implicit bound + O(m) announcement
		return math.Sqrt(n*tmix/prof.Conductance) + float64(prof.M)
	case ProtoWalkNotify: // O(tmix·√n·log^{7/2} n)
		return tmix * math.Sqrt(n)
	case ProtoFlood, ProtoAllFlood: // Ω(m) class
		return float64(prof.M)
	case ProtoRevocable: // Õ(n^{4(1+ε)}·m/i(G)²); leading shape only
		return math.Pow(n, 4) * float64(prof.M) / (prof.Isoperim * prof.Isoperim)
	default:
		return 0
	}
}

// predictTime evaluates the leading time term of each protocol's bound.
func predictTime(p Protocol, prof *spectral.Profile) float64 {
	n := float64(prof.N)
	tmix := float64(prof.MixingTime)
	ln := math.Log(n)
	switch p {
	case ProtoIRE: // O(tmix·log² n)
		return tmix * ln * ln
	case ProtoExplicit: // implicit bound + O(n) announcement window
		return tmix*ln*ln + n
	case ProtoWalkNotify:
		return tmix * ln * ln
	case ProtoFlood, ProtoAllFlood: // O(D)
		return float64(prof.Diameter)
	case ProtoRevocable: // Õ(n^{4(1+ε)}/i(G)²)
		return math.Pow(n, 4) / (prof.Isoperim * prof.Isoperim)
	default:
		return 0
	}
}

// MakeTable1Row pairs a measured cell with the paper's predicted
// complexities for the protocol.
func MakeTable1Row(p Protocol, cell Cell) Table1Row {
	return Table1Row{
		Cell:          cell,
		PredictedMsgs: predictMsgs(p, cell.Profile),
		PredictedTime: predictTime(p, cell.Profile),
	}
}

// SweepSpecs expands one protocol × family × size sweep into orchestrator
// cell specs (one per size, all sharing opts).
func SweepSpecs(p Protocol, family string, sizes []int, opts TrialOpts) []CellSpec {
	specs := make([]CellSpec, len(sizes))
	for i, n := range sizes {
		specs[i] = CellSpec{Protocol: p, Workload: Workload{Family: family, N: n}, Opts: opts}
	}
	return specs
}

// RowsFromCells pairs aggregated cells with the paper's predictions.
func RowsFromCells(cells []Cell) []Table1Row {
	rows := make([]Table1Row, len(cells))
	for i, c := range cells {
		rows[i] = MakeTable1Row(c.Protocol, c)
	}
	return rows
}

// Table1Sweep runs one protocol over a size sweep of one family and
// returns measured rows with predictions, sequentially. For a pooled
// sweep, feed SweepSpecs to Orchestrator.RunSweep and pair the cells with
// RowsFromCells — bit-identical rows, any core count.
func Table1Sweep(p Protocol, family string, sizes []int, opts TrialOpts) ([]Table1Row, error) {
	cells, err := RunSweepSequential(SweepSpecs(p, family, sizes, opts))
	if err != nil {
		return nil, err
	}
	return RowsFromCells(cells), nil
}

// RenderTable1 renders sweep rows, including measured/predicted ratios and
// the empirical scaling exponent of messages in n.
func RenderTable1(title string, rows []Table1Row) string {
	t := Table{
		Title: title,
		Header: []string{
			"family", "n", "m", "tmix", "phi", "msgs", "pred", "msg/pred",
			"rounds", "charged", "predT", "success",
		},
	}
	var xs, ys []float64
	for _, r := range rows {
		prof := r.Cell.Profile
		ratio := 0.0
		if r.PredictedMsgs > 0 {
			ratio = r.Cell.Messages / r.PredictedMsgs
		}
		t.AddRow(
			r.Cell.Workload.Family, I(prof.N), I(prof.M), I(prof.MixingTime),
			F(prof.Conductance), F(r.Cell.Messages), F(r.PredictedMsgs), F(ratio),
			F(r.Cell.Rounds), F(r.Cell.Charged), F(r.PredictedTime),
			fmt.Sprintf("%d/%d", r.Cell.Successes, r.Cell.Trials),
		)
		xs = append(xs, float64(prof.N))
		ys = append(ys, r.Cell.Messages)
	}
	out := t.String()
	if slope, r2 := stats.LogLogSlope(xs, ys); r2 > 0 {
		out += fmt.Sprintf("empirical message exponent: msgs ~ n^%.2f (R²=%.3f)\n", slope, r2)
	}
	return out
}

// SplitBrainPoint is one measured point of the Figure 1/2 reproduction.
type SplitBrainPoint struct {
	Layout      pumping.Layout
	Trials      int
	MultiLeader int     // trials electing more than one leader
	MeanLeaders float64 // mean number of leaders
	SplitCores  int     // trials with a witness split-brained in both segments
	ZeroLeader  int
}

// SplitBrainExperiment runs the pumping-wheel experiment: the IRE protocol
// parameterized for a presumed cycle C_n executes on wheels C_N with a
// growing number of planted witnesses; Theorem 2 predicts the
// multi-leader probability approaches 1 as witnesses are added.
func SplitBrainExperiment(presumedN int, witnessCounts []int, trials int, seed uint64) ([]SplitBrainPoint, error) {
	small := graph.Cycle(presumedN)
	prof, err := spectral.ProfileGraph(small)
	if err != nil {
		return nil, err
	}
	pc := core.ProtoConfig{N: presumedN, TMix: prof.MixingTime, Phi: prof.Conductance}
	// Recover T(n): the protocol's fixed running time for the presumed n.
	smallNW, err := anonlead.NewNetworkFromGraph(small)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	probe, err := smallNW.Run(context.Background(), anonlead.ProtoIRE,
		anonlead.WithSeed(seed), anonlead.WithProtoConfig(pc))
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	tOfN := probe.Rounds

	points := make([]SplitBrainPoint, 0, len(witnessCounts))
	for _, wc := range witnessCounts {
		layout, err := pumping.NewLayout(presumedN, tOfN, wc)
		if err != nil {
			return points, err
		}
		pt := SplitBrainPoint{Layout: layout, Trials: trials}
		wheel, err := anonlead.NewNetworkFromGraph(layout.Wheel())
		if err != nil {
			return points, fmt.Errorf("harness: %w", err)
		}
		sumLeaders := 0
		for tr := 0; tr < trials; tr++ {
			trialSeed := seed ^ uint64(wc)<<40 ^ uint64(tr)<<8 ^ 0x5bd1
			out, err := wheel.Run(context.Background(), anonlead.ProtoIRE, anonlead.WithSeed(trialSeed),
				anonlead.WithScheduler(anonlead.WorkerPool), anonlead.WithProtoConfig(pc))
			if err != nil {
				return points, fmt.Errorf("harness: %w", err)
			}
			res := pumping.Analyze(layout, out.Leaders)
			sumLeaders += res.NLeaders()
			if res.MultiLeader() {
				pt.MultiLeader++
			}
			if res.NLeaders() == 0 {
				pt.ZeroLeader++
			}
			if res.SplitWitnesses > 0 {
				pt.SplitCores++
			}
		}
		pt.MeanLeaders = float64(sumLeaders) / float64(trials)
		points = append(points, pt)
	}
	return points, nil
}

// RenderSplitBrain renders the Figure 1/2 series.
func RenderSplitBrain(presumedN int, points []SplitBrainPoint) string {
	t := Table{
		Title: fmt.Sprintf("Figures 1-2: pumping wheel, IRE presuming n=%d on C_N", presumedN),
		Header: []string{
			"witnesses", "N", "T(n)", "P(multi)", "lo", "hi", "E[leaders]", "splitcores", "zero",
		},
	}
	for _, pt := range points {
		lo, hi := stats.Wilson(pt.MultiLeader, pt.Trials)
		t.AddRow(
			I(pt.Layout.Witnesses), I(pt.Layout.WheelN), I(pt.Layout.T),
			F(float64(pt.MultiLeader)/float64(pt.Trials)), F(lo), F(hi),
			F(pt.MeanLeaders), I(pt.SplitCores), I(pt.ZeroLeader),
		)
	}
	return t.String()
}
