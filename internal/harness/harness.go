// Package harness runs the paper-reproduction experiments: it builds
// topology cells, executes protocol trials through the public anonlead
// API (the registry-backed Network.Run session surface), aggregates cost
// metrics and success rates, and renders the Table 1 rows and figure
// series that EXPERIMENTS.md records.
//
// Every trial goes one way: the cell's protocol name is looked up in the
// core registry, the trial options become a core.ProtoConfig whose
// profiled inputs the registry's Needs.Fill takes from the cell's cached
// profile, and the config runs through Network.Run. The sweeps thus
// exercise exactly the code path external users call, and a trial with
// default options equals a default-option public Run of the same name.
package harness

import (
	"context"
	"errors"
	"fmt"

	"anonlead"
	"anonlead/internal/adversary"
	"anonlead/internal/core"
	"anonlead/internal/epoch"
	"anonlead/internal/graph"
	"anonlead/internal/obs"
	"anonlead/internal/rng"
	"anonlead/internal/sim"
	"anonlead/internal/spectral"
	"anonlead/internal/stats"
)

// Protocol names a protocol under test.
type Protocol string

// The protocols the harness can run.
const (
	ProtoIRE        Protocol = "ire"        // this work, Section 4
	ProtoExplicit   Protocol = "explicit"   // this work + Section 3 announcement
	ProtoFlood      Protocol = "flood"      // Kutten-class baseline
	ProtoAllFlood   Protocol = "allflood"   // naive flooding baseline
	ProtoWalkNotify Protocol = "walknotify" // Gilbert-class baseline
	ProtoRevocable  Protocol = "revocable"  // this work, Section 5.2
)

// Protocols lists all runnable protocols.
func Protocols() []Protocol {
	return []Protocol{ProtoIRE, ProtoExplicit, ProtoFlood, ProtoAllFlood, ProtoWalkNotify, ProtoRevocable}
}

// Workload identifies a topology cell.
type Workload struct {
	Family string
	N      int
}

// BuildGraph constructs the workload's graph deterministically from seed
// (random families draw from a seed-keyed stream).
func (w Workload) BuildGraph(seed uint64) (*graph.Graph, error) {
	r := rng.New(seed).SplitString("graph:" + w.Family)
	return graph.ByName(w.Family, w.N, r)
}

// Trial is the outcome of one protocol execution. Under fault injection,
// Leaders (and the all-know clause of explicit election) are evaluated
// over surviving nodes only: a crash-stopped node cannot claim or learn a
// leadership it will never act on.
type Trial struct {
	Leaders int
	Success bool // exactly one (surviving) leader
	Rounds  int
	// Metrics is the run's full cost accounting, Crashed included.
	Metrics anonlead.Metrics
	// RoundProf is the trial's deterministic round-resolved histogram,
	// present only when TrialOpts.RoundProfile asked for one.
	RoundProf *obs.RoundProfile
	// EpochHist is the trial's full repeated-election history, present only
	// when TrialOpts.Epochs made the trial an epoch scenario. The flat
	// fields above then hold the scenario totals (Rounds/Metrics summed over
	// epochs; Success = every epoch elected).
	EpochHist *anonlead.EpochOutcome
}

// publicAdversary mirrors an internal adversary spec into the public one,
// field for field (the public type exists so library users can declare
// the same fault policies the sweeps run).
func publicAdversary(s adversary.Spec) anonlead.AdversarySpec {
	return anonlead.AdversarySpec{
		Loss:          s.Loss,
		CrashFraction: s.CrashFraction,
		CrashBy:       s.CrashBy,
		CrashSchedule: s.CrashSchedule,
		Churn:         s.Churn,
		ChurnPreserve: s.ChurnPreserve,
		DelayProb:     s.DelayProb,
		MaxDelay:      s.MaxDelay,

		AdaptiveCrash:   s.AdaptiveCrash,
		AdaptiveWindow:  s.AdaptiveWindow,
		AdaptiveStrikes: s.AdaptiveStrikes,
	}
}

// TrialOpts configures a batch of trials.
type TrialOpts struct {
	Trials int
	Seed   uint64
	// Parallel runs every trial on the WorkerPool scheduler.
	Parallel bool
	// Scheduler explicitly selects the simulator engine for every trial
	// (zero = Sequential unless Parallel is set). All engines are
	// bit-identical; the knob exists so determinism tests can sweep them.
	Scheduler sim.Scheduler
	// Adversary, when non-nil and non-zero, fault-injects every trial of
	// the batch. The adversary's streams are split from the trial seed
	// under a dedicated label, so machine randomness is untouched and a
	// zero-rate spec is byte-identical to no adversary at all.
	Adversary *adversary.Spec
	// ProfileMode selects the regime for the cell's spectral profile (the
	// protocols' tmix/Φ/diameter inputs): exact (legacy, the committed
	// baselines), estimate (streaming, scales past dense-matrix sizes) or
	// auto (exact up to n = 256, estimate above; the zero value). The
	// resolved mode is part of the cell's identity: the profile cache keys
	// on it and artifact cells record it.
	ProfileMode spectral.Mode
	// PresumedN, when positive, misreports the network size to the
	// protocol (the knowledge ablation after Dieudonné–Pelc: how does
	// election degrade when nodes' knowledge of n is wrong?). The graph
	// keeps its true size; only the size the protocol is told changes.
	// Revocable LE estimates n itself and ignores this knob.
	PresumedN int
	// IRE overrides the IRE protocol constants (zero values = defaults).
	IRE core.IREConfig
	// Revocable overrides the revocable protocol parameters.
	Revocable core.RevocableConfig
	// RevocableMaxRounds caps a revocable run (0 = automatic).
	RevocableMaxRounds int
	// RevocableUseProfileIso feeds the profiled exact isoperimetric
	// number into the revocable protocol (the Theorem 3 known-i(G)
	// schedule) instead of the blind Corollary 1 schedule.
	RevocableUseProfileIso bool
	// RoundProfile, when true, attaches a deterministic per-round
	// message/halt histogram to every trial (merged per cell and persisted
	// in the schema-v5 artifact's round_profile section). Off by default:
	// an unprofiled sweep serializes byte-identically to one that never
	// heard of round profiles.
	RoundProfile bool
	// Epochs, when non-nil, turns every trial into a repeated-election
	// epoch scenario (anonlead.RunEpochs): the trial's flat metrics become
	// scenario totals and the cell additionally aggregates per-epoch stats
	// (schema-v6 artifact epochs section). Nil keeps the classic
	// single-election trial byte-identical to earlier schemas.
	Epochs *epoch.Opts
}

// Cell is the aggregated result of a trial batch on one workload.
type Cell struct {
	Protocol Protocol
	Workload Workload
	Profile  *spectral.Profile

	Trials    int
	Successes int
	// Means over trials.
	Messages float64
	Bits     float64
	Rounds   float64
	Charged  float64
	// Per-trial distributions of the same metrics (stddev, min/max, tail
	// quantiles) — what the schema-v2 artifact persists so regression
	// tooling can separate real effects from trial variance.
	MessagesDist stats.Dist
	BitsDist     stats.Dist
	RoundsDist   stats.Dist
	ChargedDist  stats.Dist
	// MultiLeaders counts trials with more than one leader (vs zero).
	MultiLeaders int
	ZeroLeaders  int
	// Fault-injection aggregates (all zero on fault-free cells): mean
	// adversary-dropped packets and mean crash-stopped nodes per trial.
	Dropped      float64
	CrashedNodes float64
	// RoundProf is the elementwise sum of the trials' round histograms,
	// merged in trial-index order (nil unless TrialOpts.RoundProfile).
	RoundProf *obs.RoundProfile
	// EpochStats aggregates the trials' repeated-election histories in
	// trial-index order (nil unless TrialOpts.Epochs made this an epoch
	// scenario cell).
	EpochStats *epoch.CellStats
}

// SuccessRate returns the fraction of trials electing exactly one leader.
func (c Cell) SuccessRate() float64 {
	if c.Trials == 0 {
		return 0
	}
	return float64(c.Successes) / float64(c.Trials)
}

// TrialSeed derives the seed of trial t of a workload cell from the root
// seed by rng stream splitting. It is a pure function of (root, cell, t):
// any execution order — the sequential loop in RunCell or the sharded
// worker pool in Orchestrator.RunSweep — evaluates exactly the same trials,
// which is what makes parallel sweep output bit-identical to sequential.
func TrialSeed(root uint64, w Workload, t int) uint64 {
	return rng.New(root).SplitString("trial:" + w.Family).Split(uint64(w.N)).DeriveSeed(uint64(t))
}

// AdversarySeed derives a trial's fault-injection stream from its trial
// seed — the canonical derivation shared with the public Run path, which
// builds its adversaries with the same function (so harness sweeps and
// public fault-injected runs are byte-identical).
func AdversarySeed(trialSeed uint64) uint64 {
	return adversary.DeriveRunSeed(trialSeed)
}

// prepareCell deterministically builds and profiles a workload graph and
// wraps it as a public network (the session object every trial of the
// cell runs through). The graph, its network wrap, and the profile all
// come from the process-wide cell cache, so repeated cells — across
// protocols, ablation factors, or whole sweeps — cost one build, one
// structural validation, and one profile. The network's own lazy profile
// is never touched: trials supply every profiled input explicitly.
func prepareCell(w Workload, seed uint64, mode spectral.Mode) (*anonlead.Network, *spectral.Profile, error) {
	label := cellLabel(w)
	endPrep := obs.Span("prepare", label)
	_, anw, err := cachedGraph(w, seed)
	endPrep()
	if err != nil {
		return nil, nil, fmt.Errorf("harness: build %s/%d: %w", w.Family, w.N, err)
	}
	endProf := obs.Span("profile", label)
	prof, err := cachedSpectralProfile(w, seed, mode)
	endProf()
	if err != nil {
		return nil, nil, fmt.Errorf("harness: profile %s/%d: %w", w.Family, w.N, err)
	}
	return anw, prof, nil
}

// cellLabel is the span detail naming a workload cell. It formats nothing
// while telemetry is disabled, keeping disabled call sites allocation-free.
func cellLabel(w Workload) string {
	if !obs.Enabled() {
		return ""
	}
	return fmt.Sprintf("%s/%d", w.Family, w.N)
}

// reduceCell aggregates a batch of trials, always in slice (= trial index)
// order, so sequential and sharded executions produce identical cells down
// to floating-point summation order. eo, when non-nil, is the epoch
// scenario the trials ran; their histories fold into Cell.EpochStats.
func reduceCell(p Protocol, w Workload, prof *spectral.Profile, eo *epoch.Opts, trials []Trial) Cell {
	cell := Cell{Protocol: p, Workload: w, Profile: prof}
	var hists []anonlead.EpochOutcome
	msgs := make([]float64, 0, len(trials))
	bits := make([]float64, 0, len(trials))
	rounds := make([]float64, 0, len(trials))
	charged := make([]float64, 0, len(trials))
	for _, trial := range trials {
		cell.Trials++
		if trial.Success {
			cell.Successes++
		}
		if trial.Leaders > 1 {
			cell.MultiLeaders++
		}
		if trial.Leaders == 0 {
			cell.ZeroLeaders++
		}
		cell.Dropped += float64(trial.Metrics.Dropped)
		cell.CrashedNodes += float64(trial.Metrics.Crashed)
		if trial.RoundProf != nil {
			if cell.RoundProf == nil {
				cell.RoundProf = &obs.RoundProfile{}
			}
			cell.RoundProf.Merge(trial.RoundProf)
		}
		if trial.EpochHist != nil {
			hists = append(hists, *trial.EpochHist)
		}
		msgs = append(msgs, float64(trial.Metrics.Messages))
		bits = append(bits, float64(trial.Metrics.Bits))
		rounds = append(rounds, float64(trial.Rounds))
		charged = append(charged, float64(trial.Metrics.ChargedRounds))
	}
	if cell.Trials > 0 {
		cell.Dropped /= float64(cell.Trials)
		cell.CrashedNodes /= float64(cell.Trials)
	}
	cell.MessagesDist = stats.DistOf(msgs)
	cell.BitsDist = stats.DistOf(bits)
	cell.RoundsDist = stats.DistOf(rounds)
	cell.ChargedDist = stats.DistOf(charged)
	cell.Messages = cell.MessagesDist.Mean
	cell.Bits = cell.BitsDist.Mean
	cell.Rounds = cell.RoundsDist.Mean
	cell.Charged = cell.ChargedDist.Mean
	if eo != nil && len(hists) > 0 {
		cs := epoch.Reduce(*eo, hists)
		cell.EpochStats = &cs
	}
	return cell
}

// RunCell profiles the workload graph and executes a batch of trials of
// the protocol on it, sequentially on the calling goroutine. It is the
// reference semantics for Orchestrator.RunSweep, which produces
// bit-identical cells from a worker pool.
func RunCell(p Protocol, w Workload, opts TrialOpts) (Cell, error) {
	anw, prof, err := prepareCell(w, opts.Seed, opts.ProfileMode)
	if err != nil {
		return Cell{}, err
	}
	trials := make([]Trial, cellTrials(opts))
	endTrials := obs.Span("trials", cellLabel(w))
	for t := range trials {
		trial, err := runOne(p, anw, prof, opts, TrialSeed(opts.Seed, w, t))
		if err != nil {
			endTrials()
			return Cell{Protocol: p, Workload: w, Profile: prof}, err
		}
		trials[t] = trial
	}
	endTrials()
	endReduce := obs.Span("reduce", cellLabel(w))
	defer endReduce()
	return reduceCell(p, w, prof, opts.Epochs, trials), nil
}

// cellTrials returns the effective trial count of a batch (minimum 1).
func cellTrials(opts TrialOpts) int {
	if opts.Trials <= 0 {
		return 1
	}
	return opts.Trials
}

// runOne executes a single trial of protocol p on the prepared network.
// It resolves the cell's trial options into the shared protocol config,
// fills the profiled inputs from the cell's cached profile through the
// registry's one fill rule, and runs the config through Network.Run. The
// fill must happen here, never inside Run: the cell network is wrapped
// with profile seed 0, so Run's own profile could differ from the cell's
// in the estimate regime, and the cell profile is computed exactly once.
func runOne(p Protocol, anw *anonlead.Network, prof *spectral.Profile, opts TrialOpts, seed uint64) (Trial, error) {
	entry, ok := core.Lookup(string(p))
	if !ok {
		return Trial{}, fmt.Errorf("harness: unknown protocol %q", p)
	}
	var pc core.ProtoConfig
	switch p {
	case ProtoIRE, ProtoExplicit:
		pc = ireProto(opts.IRE)
	case ProtoRevocable:
		cfg := opts.Revocable
		if opts.RevocableUseProfileIso && cfg.Isoperimetric == 0 {
			cfg.Isoperimetric = prof.Isoperim
		}
		pc = revocableProto(cfg, opts.RevocableMaxRounds)
	}
	// The size the protocol is told; PresumedN misreports it for the
	// knowledge ablation (topology parameters stay truthful).
	pc.N = anw.N()
	if opts.PresumedN > 0 {
		pc.N = opts.PresumedN
	}
	if err := entry.Needs.Fill(&pc, func() (*spectral.Profile, error) { return prof, nil }); err != nil {
		return Trial{}, err
	}

	ropts := []anonlead.Option{anonlead.WithSeed(seed), anonlead.WithProtoConfig(pc)}
	if opts.Parallel || opts.Scheduler == sim.WorkerPool {
		ropts = append(ropts, anonlead.WithScheduler(anonlead.WorkerPool))
	}
	if opts.Adversary != nil {
		// The runtime adversary is built inside Run with the canonical
		// seed derivation, so harness and public fault-injected runs are
		// byte-identical.
		ropts = append(ropts, anonlead.WithAdversary(publicAdversary(*opts.Adversary)))
	}
	var rp *obs.RoundProfile
	if opts.RoundProfile {
		rp = &obs.RoundProfile{}
		ropts = append(ropts, anonlead.WithObserver(roundProfileObserver(rp)))
	}

	var trial Trial
	var err error
	if opts.Epochs != nil {
		trial, err = runEpochTrial(anw, string(p), ropts, *opts.Epochs)
	} else {
		faulted := opts.Adversary != nil && !opts.Adversary.IsZero()
		trial, err = runTrial(anw, string(p), ropts, faulted)
	}
	if err == nil {
		// Both real completions and measured fault non-convergence carry
		// the profile: every executed round was observed either way.
		trial.RoundProf = rp
	}
	return trial, err
}

// runEpochTrial executes one repeated-election scenario through the public
// RunEpochs path and folds the history into a harness Trial: the flat
// fields carry the scenario totals (so classic cell aggregation still
// means something), and the full history rides along for epoch.Reduce.
func runEpochTrial(anw *anonlead.Network, proto string, ropts []anonlead.Option, eo epoch.Opts) (Trial, error) {
	hist, err := epoch.Run(anw, proto, ropts, eo)
	if err != nil {
		return Trial{}, fmt.Errorf("harness: %w", err)
	}
	trial := Trial{
		Success: hist.Elected == len(hist.Epochs),
		Rounds:  hist.TotalRounds,
		Metrics: anonlead.Metrics{
			Rounds:        hist.TotalRounds,
			ChargedRounds: hist.TotalCharged,
			Messages:      hist.TotalMessages,
			Bits:          hist.TotalBits,
		},
		EpochHist: &hist,
	}
	if n := len(hist.Epochs); n > 0 {
		last := hist.Epochs[n-1]
		trial.Metrics.Crashed = last.Crashed
		if last.Elected {
			trial.Leaders = 1
		}
	}
	return trial, nil
}

// roundProfileObserver adapts the public per-round observer feed — which
// is cumulative — into per-round deltas on a round profile.
func roundProfileObserver(rp *obs.RoundProfile) func(anonlead.RoundInfo) {
	o := rp.RoundObserver()
	return func(ri anonlead.RoundInfo) { o(ri.Metrics.Messages, int64(ri.Halted)) }
}

// ireProto maps an IRE config onto the shared protocol config.
func ireProto(cfg core.IREConfig) core.ProtoConfig {
	return core.ProtoConfig{
		N: cfg.N, TMix: cfg.TMix, Phi: cfg.Phi, C: cfg.C,
		X: cfg.X, XFactor: cfg.XFactor, MaxID: cfg.MaxID,
		BroadcastOnly: cfg.BroadcastOnly,
	}
}

// revocableProto maps a revocable config onto the shared protocol config.
func revocableProto(cfg core.RevocableConfig, maxRounds int) core.ProtoConfig {
	return core.ProtoConfig{
		Epsilon: cfg.Epsilon, Xi: cfg.Xi, Iso: cfg.Isoperimetric,
		FMult: cfg.FMult, RMult: cfg.RMult, MaxRounds: maxRounds,
	}
}

// runTrial executes one election through the public Run path and folds
// the unified outcome into a harness Trial. faulted reports an active
// adversary in ropts.
func runTrial(anw *anonlead.Network, proto string, ropts []anonlead.Option, faulted bool) (Trial, error) {
	out, err := anw.Run(context.Background(), proto, ropts...)
	// Under fault injection a non-converging election is a measured
	// outcome — it degrades the success rate like any other fault damage
	// — not a harness error that should abort the sweep. The partial
	// Outcome carries no leaders and still holds the run's cost accounting.
	if err != nil && !(faulted && errors.Is(err, anonlead.ErrNotStabilized)) {
		return Trial{}, fmt.Errorf("harness: %w", err)
	}
	return Trial{
		Leaders: len(out.Leaders),
		Success: out.Unique && out.AllKnow,
		Rounds:  out.Rounds,
		Metrics: out.Metrics,
	}, nil
}
