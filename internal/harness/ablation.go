package harness

import (
	"fmt"
	"math"

	"anonlead"
	"anonlead/internal/core"
	"anonlead/internal/diffusion"
	"anonlead/internal/rng"
	"anonlead/internal/sim"
	"anonlead/internal/spectral"
	"anonlead/internal/stats"
)

// CautiousPoint is one point of the Lemma 1 ablation: cautious broadcast
// run in isolation at a given walk-count parameter x, measuring territory
// sizes against the Ω(x·tmix·Φ) bound and messages against Õ(x·tmix).
type CautiousPoint struct {
	X             int
	CapSize       int // x·tmix·Φ (clamped)
	MeanTerritory float64
	MaxTerritory  int
	Messages      float64
	PredictedMsgs float64 // x·tmix per candidate × candidate count
	Candidates    float64
}

// AblationCautious sweeps x and measures cautious-broadcast territories
// and cost in isolation (experiment X1).
func AblationCautious(w Workload, xs []int, trials int, seed uint64) ([]CautiousPoint, *spectral.Profile, error) {
	g, err := w.BuildGraph(seed)
	if err != nil {
		return nil, nil, err
	}
	prof, err := spectral.ProfileGraph(g)
	if err != nil {
		return nil, nil, err
	}
	points := make([]CautiousPoint, 0, len(xs))
	for _, x := range xs {
		cfg := core.IREConfig{
			N: g.N(), TMix: prof.MixingTime, Phi: prof.Conductance,
			X: x, BroadcastOnly: true,
		}
		factory, err := core.NewIREFactory(cfg)
		if err != nil {
			return points, prof, err
		}
		pt := CautiousPoint{X: x}
		var territories []float64
		var msgs, cands float64
		for t := 0; t < trials; t++ {
			nw := sim.New(sim.Config{Graph: g, Seed: seed ^ uint64(x)<<24 ^ uint64(t)}, factory)
			m0 := nw.Machine(0).(*core.IREMachine)
			_, _, _, capSize, total := m0.Params()
			pt.CapSize = capSize
			nw.Run(total + 4)
			for v := 0; v < g.N(); v++ {
				out := nw.Machine(v).(*core.IREMachine).Output()
				if out.Candidate {
					cands++
					territories = append(territories, float64(out.Territory))
					if out.Territory > pt.MaxTerritory {
						pt.MaxTerritory = out.Territory
					}
				}
			}
			msgs += float64(nw.Metrics().Messages)
		}
		sum := stats.Summarize(territories)
		pt.MeanTerritory = sum.Mean
		pt.Messages = msgs / float64(trials)
		pt.Candidates = cands / float64(trials)
		pt.PredictedMsgs = float64(x) * float64(prof.MixingTime) * pt.Candidates
		points = append(points, pt)
	}
	return points, prof, nil
}

// RenderAblationCautious renders the X1 series.
func RenderAblationCautious(w Workload, prof *spectral.Profile, points []CautiousPoint) string {
	t := Table{
		Title: fmt.Sprintf("X1 (Lemma 1): cautious broadcast on %s n=%d (tmix=%d, phi=%.4f)",
			w.Family, w.N, prof.MixingTime, prof.Conductance),
		Header: []string{"x", "cap=x*tmix*phi", "mean territory", "max", "cands", "msgs", "x*tmix*cands", "msgs/pred"},
	}
	for _, p := range points {
		ratio := 0.0
		if p.PredictedMsgs > 0 {
			ratio = p.Messages / p.PredictedMsgs
		}
		t.AddRow(I(p.X), I(p.CapSize), F(p.MeanTerritory), I(p.MaxTerritory),
			F(p.Candidates), F(p.Messages), F(p.PredictedMsgs), F(ratio))
	}
	return t.String()
}

// WalkPoint is one point of the Lemma 2 ablation: success rate of the full
// protocol as the walk count scales away from the paper's x.
type WalkPoint struct {
	Factor    float64
	X         int
	Trials    int
	Successes int
	Messages  float64
}

// AblationWalks sweeps the walk-count factor and measures election success
// (experiment X2): the knee should sit near factor 1 (the paper's x).
func AblationWalks(w Workload, factors []float64, trials int, seed uint64) ([]WalkPoint, *spectral.Profile, error) {
	g, anw, err := cachedGraph(w, seed)
	if err != nil {
		return nil, nil, err
	}
	prof, err := spectral.ProfileGraph(g)
	if err != nil {
		return nil, nil, err
	}
	points := make([]WalkPoint, 0, len(factors))
	for _, f := range factors {
		cfg := core.IREConfig{
			N: g.N(), TMix: prof.MixingTime, Phi: prof.Conductance, XFactor: f,
		}
		factory, err := core.NewIREFactory(cfg)
		if err != nil {
			return points, prof, err
		}
		pt := WalkPoint{Factor: f, Trials: trials}
		pt.X, _, _, _, _ = factory(0, g.Degree(0), rng.New(seed)).(*core.IREMachine).Params()
		for t := 0; t < trials; t++ {
			ropts := []anonlead.Option{
				anonlead.WithSeed(seed ^ uint64(math.Float64bits(f)) ^ uint64(t)<<16),
				anonlead.WithProtoConfig(ireProto(cfg)),
			}
			trial, err := runTrial(anw, string(ProtoIRE), ropts, false)
			if err != nil {
				return points, prof, err
			}
			if trial.Success {
				pt.Successes++
			}
			pt.Messages += float64(trial.Metrics.Messages)
		}
		pt.Messages /= float64(trials)
		points = append(points, pt)
	}
	return points, prof, nil
}

// RenderAblationWalks renders the X2 series.
func RenderAblationWalks(w Workload, prof *spectral.Profile, points []WalkPoint) string {
	t := Table{
		Title: fmt.Sprintf("X2 (Lemma 2): walk-count sweep on %s n=%d (paper x at factor 1)",
			w.Family, w.N),
		Header: []string{"factor", "x", "success", "rate", "lo", "hi", "msgs"},
	}
	for _, p := range points {
		lo, hi := stats.Wilson(p.Successes, p.Trials)
		t.AddRow(F(p.Factor), I(p.X), fmt.Sprintf("%d/%d", p.Successes, p.Trials),
			F(float64(p.Successes)/float64(p.Trials)), F(lo), F(hi), F(p.Messages))
	}
	return t.String()
}

// KnowledgePoint is one point of the knowledge ablation (experiment X4):
// the IRE protocol run with a misreported network size presumed = factor·n,
// after Dieudonné & Pelc's study of how knowledge of n impacts election
// time in anonymous networks. The graph (and its true tmix, Φ) stays fixed;
// only the size the nodes are told changes.
type KnowledgePoint struct {
	Factor    float64
	PresumedN int
	Trials    int
	Successes int
	Messages  float64
	Rounds    float64
}

// KnowledgeSpecs expands a presumed-size sweep into orchestrator cell
// specs: each factor is one workload cell with PresumedN = factor·n
// (clamped to 2). Trial seeds are shared across factors for a paired
// comparison.
func KnowledgeSpecs(w Workload, factors []float64, trials int, seed uint64) []CellSpec {
	specs := make([]CellSpec, len(factors))
	for i, f := range factors {
		presumed := int(f * float64(w.N))
		if presumed < 2 {
			presumed = 2
		}
		specs[i] = CellSpec{
			Protocol: ProtoIRE,
			Workload: w,
			Opts:     TrialOpts{Trials: trials, Seed: seed, PresumedN: presumed},
		}
	}
	return specs
}

// KnowledgePoints pairs the cells of a KnowledgeSpecs sweep with their
// factors and presumed sizes.
func KnowledgePoints(factors []float64, specs []CellSpec, cells []Cell) ([]KnowledgePoint, *spectral.Profile) {
	points := make([]KnowledgePoint, len(cells))
	for i, c := range cells {
		points[i] = KnowledgePoint{
			Factor:    factors[i],
			PresumedN: specs[i].Opts.PresumedN,
			Trials:    c.Trials,
			Successes: c.Successes,
			Messages:  c.Messages,
			Rounds:    c.Rounds,
		}
	}
	var prof *spectral.Profile
	if len(cells) > 0 {
		prof = cells[0].Profile
	}
	return points, prof
}

// AblationKnowledge sweeps the presumed network size over factor·n and
// measures election success and cost through the orchestrator (each factor
// is one workload cell, so the sweep fans out over the worker pool).
func AblationKnowledge(o Orchestrator, w Workload, factors []float64, trials int, seed uint64) ([]KnowledgePoint, *spectral.Profile, error) {
	specs := KnowledgeSpecs(w, factors, trials, seed)
	cells, err := o.RunSweep(specs)
	if err != nil {
		return nil, nil, err
	}
	points, prof := KnowledgePoints(factors, specs, cells)
	return points, prof, nil
}

// RenderAblationKnowledge renders the X4 series.
func RenderAblationKnowledge(w Workload, prof *spectral.Profile, points []KnowledgePoint) string {
	t := Table{
		Title: fmt.Sprintf("X4 (knowledge, after Dieudonné-Pelc): presumed-n sweep on %s n=%d (truth at factor 1)",
			w.Family, w.N),
		Header: []string{"factor", "presumed n", "success", "rate", "lo", "hi", "msgs", "rounds"},
	}
	for _, p := range points {
		lo, hi := stats.Wilson(p.Successes, p.Trials)
		t.AddRow(F(p.Factor), I(p.PresumedN), fmt.Sprintf("%d/%d", p.Successes, p.Trials),
			F(float64(p.Successes)/float64(p.Trials)), F(lo), F(hi), F(p.Messages), F(p.Rounds))
	}
	return t.String()
}

// DiffusionPoint is one point of the Lemmas 5-8 ablation: the potential
// diffusion of Algorithm 7 evolved exactly (matrix powering) for an
// estimate k, reporting whether the τ(k) threshold alarm fires.
type DiffusionPoint struct {
	K          uint64
	KPow       float64 // k^{1+ε}
	Rounds     int     // r(k) from the Theorem 3 schedule
	Whites     int
	MaxPot     float64
	Tau        float64
	AlarmFired bool // max potential above τ (k detected low)
	TheoryLow  bool // k^{1+ε} < 2n+1: the regime where alarms are allowed
}

// AblationDiffusion evolves the diffusion phase exactly on the workload
// graph for doubling estimates and compares the threshold detector against
// the Lemma 5 guarantee: once k^{1+ε} ≥ 2n+1 and at least one white node
// exists, no potential exceeds τ(k).
func AblationDiffusion(w Workload, eps float64, maxK uint64, seed uint64) ([]DiffusionPoint, error) {
	g, err := w.BuildGraph(seed)
	if err != nil {
		return nil, err
	}
	prof, err := spectral.ProfileGraph(g)
	if err != nil {
		return nil, err
	}
	n := g.N()
	r := rng.New(seed).SplitString("diffusion")
	var points []DiffusionPoint
	for k := uint64(2); k <= maxK; k *= 2 {
		kp := math.Pow(float64(k), 1+eps)
		share := 1 / (2 * kp)
		pWhite := math.Ln2 / kp
		// Sample colors; force at least one white in the Lemma 5 regime
		// so the guarantee's precondition (ℓ >= 1) holds.
		white := make([]bool, n)
		whites := 0
		for v := 0; v < n; v++ {
			if r.Bernoulli(pWhite) {
				white[v] = true
				whites++
			}
		}
		if whites == 0 && kp >= float64(2*n+1) {
			white[r.Intn(n)] = true
			whites = 1
		}
		// Exact diffusion via the shared substrate.
		proc, err := diffusion.New(g, share, diffusion.BlackInit(white))
		if err != nil {
			return nil, err
		}
		rounds := int(8*kp*kp/(prof.Isoperim*prof.Isoperim)*math.Log(kp*kp) + kp*math.Log(2*float64(k)))
		if rounds < 1 {
			rounds = 1
		}
		const roundCap = 2_000_000
		if rounds > roundCap {
			rounds = roundCap
		}
		proc.Run(rounds)
		maxPot := proc.Max()
		tau := 1 - 1/(kp-1)
		points = append(points, DiffusionPoint{
			K: k, KPow: kp, Rounds: rounds, Whites: whites,
			MaxPot: maxPot, Tau: tau,
			AlarmFired: maxPot > tau,
			TheoryLow:  kp < float64(2*n+1),
		})
	}
	return points, nil
}

// RenderAblationDiffusion renders the X3 series.
func RenderAblationDiffusion(w Workload, points []DiffusionPoint) string {
	t := Table{
		Title:  fmt.Sprintf("X3 (Lemmas 5-8): diffusion threshold detector on %s n=%d", w.Family, w.N),
		Header: []string{"k", "k^(1+e)", "r(k)", "whites", "maxPot", "tau(k)", "alarm", "low-k regime"},
	}
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%d", p.K), F(p.KPow), I(p.Rounds), I(p.Whites),
			F(p.MaxPot), F(p.Tau), fmt.Sprintf("%t", p.AlarmFired), fmt.Sprintf("%t", p.TheoryLow))
	}
	return t.String()
}
