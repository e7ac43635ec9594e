package anonlead

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"anonlead/internal/adversary"
	_ "anonlead/internal/baseline" // registers floodmax/allflood/walknotify
	"anonlead/internal/core"
	"anonlead/internal/sim"
	"anonlead/internal/spectral"
	"anonlead/internal/trace"
	"anonlead/internal/transport"
)

// Canonical names of the registered protocols (see the package docs for
// what each one runs). Run also accepts the legacy alias "flood" for
// ProtoFloodMax.
const (
	ProtoIRE        = "ire"
	ProtoExplicit   = "explicit"
	ProtoRevocable  = "revocable"
	ProtoFloodMax   = "floodmax"
	ProtoAllFlood   = "allflood"
	ProtoWalkNotify = "walknotify"
)

// Sentinel errors Run wraps into its failures; test with errors.Is. When
// either is returned, the accompanying Outcome still carries the rounds
// executed and the full cost accounting of the partial run.
var (
	// ErrNotHalted reports a fixed-budget protocol that failed to halt
	// within its round budget.
	ErrNotHalted = errors.New("protocol did not halt within its round budget")
	// ErrNotStabilized reports a revocable election that failed to reach
	// the Theorem 3 stabilization point within its round cap.
	ErrNotStabilized = errors.New("revocable election did not stabilize")
)

var errEmptyGraph = errors.New("anonlead: network requires a non-empty graph")

// Protocols returns the canonical names of every registered protocol, the
// paper's protocols first, then the promoted baselines. Any returned name
// is accepted by Run.
func Protocols() []string { return core.Names() }

// ProtocolInfo returns a one-line description of a registered protocol
// ("" for unknown names).
func ProtocolInfo(name string) string {
	if e, ok := core.Lookup(name); ok {
		return e.Info
	}
	return ""
}

// Outcome is the unified result of Run: the election outcome and CONGEST
// cost accounting shared by every protocol, plus the per-protocol extras
// (announcement spanning tree, revocable certificate).
type Outcome struct {
	Result

	// Protocol is the canonical name of the protocol that ran (aliases
	// resolved).
	Protocol string

	// LeaderID is the elected leader's random ID (0 if no leader). For
	// revocable elections it is the agreed certificate ID.
	LeaderID uint64

	// AllKnow reports whether every surviving node learned the leader.
	// Only the explicit protocol has an announcement phase; for the other
	// protocols AllKnow is vacuously true.
	AllKnow bool

	// Parents[v] is v's parent node in the leader-rooted announcement BFS
	// tree, -1 at the leader and at unreached nodes (explicit only; nil
	// otherwise).
	Parents []int
	// Depths[v] is v's hop distance from the leader in that tree.
	Depths []int

	// Certificate is the network-wide agreed revocable leader certificate
	// (revocable only; nil otherwise).
	Certificate *Certificate
	// FinalEstimate is the revocable size estimate at stabilization.
	FinalEstimate uint64

	// Profile is the structural profile the run was parameterized by, when
	// one was computed (nil when every profiled input was supplied
	// explicitly, e.g. via WithMixingTime/WithConductance/WithDiameter —
	// the run never forces a profile it did not need). The regime follows
	// WithProfileMode.
	Profile *Profile

	// Metrics is the simulator's full cost accounting (the headline
	// counters are also flattened into the embedded Result).
	Metrics Metrics
}

// Metrics mirrors the simulator's complete cost accounting.
type Metrics struct {
	// Rounds is the number of logical synchronous rounds executed.
	Rounds int
	// ChargedRounds is the CONGEST-model time: per logical round, the
	// maximum over links of the number of budget-sized slots needed to
	// serialize that link's traffic, at least 1 per executed round.
	ChargedRounds int64
	// Messages is the number of point-to-point payloads sent.
	Messages int64
	// Bits is the total payload bits sent.
	Bits int64
	// CongestBits is the per-link per-round budget B used for slotting.
	CongestBits int
	// MaxLinkSlots is the worst per-link slot count observed in any round.
	MaxLinkSlots int
	// MaxChannels is the maximum number of distinct logical channels
	// active on a single link in a single round.
	MaxChannels int
	// Dropped counts packets destroyed by the configured adversary.
	Dropped int64
	// Delayed counts packets the adversary deferred past their normal
	// next-round delivery.
	Delayed int64
	// Crashed counts nodes crash-stopped by the adversary.
	Crashed int
}

func metricsFromSim(m sim.Metrics) Metrics {
	return Metrics{
		Rounds:        m.Rounds,
		ChargedRounds: m.ChargedRounds,
		Messages:      m.Messages,
		Bits:          m.Bits,
		CongestBits:   m.CongestBits,
		MaxLinkSlots:  m.MaxLinkSlots,
		MaxChannels:   m.MaxChannels,
		Dropped:       m.Dropped,
		Delayed:       m.Delayed,
		Crashed:       m.Crashes,
	}
}

// RoundInfo is the per-round snapshot streamed to a WithObserver callback.
type RoundInfo struct {
	// Round is the index of the round just executed (0-based).
	Round int
	// Halted is the number of nodes stopped so far (protocol halts plus
	// adversary crash-stops).
	Halted int
	// Metrics is the cumulative cost accounting after this round.
	Metrics Metrics
}

// Run executes a registered protocol on the network and returns the
// unified Outcome. protocol is any name listed by Protocols() (or the
// legacy alias "flood"). A nil ctx means context.Background(); a
// cancelled context stops the simulation between rounds and returns the
// context's error alongside an Outcome holding the cost accounting so
// far. Runs are deterministic in (network, protocol, seed, options) and
// bit-identical across every scheduler.
func (nw *Network) Run(ctx context.Context, protocol string, opts ...Option) (Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := buildOptions(opts)
	entry, ok := core.Lookup(protocol)
	if !ok {
		return Outcome{}, fmt.Errorf("anonlead: unknown protocol %q (registered: %s)",
			protocol, strings.Join(Protocols(), ", "))
	}

	// The one shared config-assembly path: overlay the network's truth and
	// profiled defaults onto the options' protocol tunables.
	pc := o.proto
	pc.TrueN = nw.N()
	if pc.N == 0 {
		pc.N = nw.N()
	}
	var adv sim.Adversary
	if o.adversary != nil {
		spec := o.adversary.internal()
		var err error
		adv, err = spec.Build(nw.g, adversary.DeriveRunSeed(o.seed))
		if err != nil {
			return Outcome{}, fmt.Errorf("anonlead: %w", err)
		}
	}
	if adv != nil {
		pc.MaxDelay = adv.MaxDelay()
		pc.Faulted = true
	}
	mode := o.profile.internal()
	if err := entry.Needs.Fill(&pc, func() (*spectral.Profile, error) { return nw.profileMode(mode) }); err != nil {
		return Outcome{}, err
	}

	runner, err := entry.Build(pc)
	if err != nil {
		return Outcome{}, err
	}

	var observer func(sim.RoundInfo)
	if o.observer != nil {
		obs := o.observer
		observer = func(ri sim.RoundInfo) {
			obs(RoundInfo{Round: ri.Round, Halted: ri.Halted, Metrics: metricsFromSim(ri.Metrics)})
		}
	}
	var tracer trace.Recorder
	if o.tracer != nil {
		tracer = traceAdapter{o.tracer}
	}

	// Both backends present the same Runtime surface, so everything below
	// the construction branch — the run loop, halt checks, metric and
	// outcome collection — is backend-agnostic.
	var eng transport.Runtime
	if backend := o.transport.internal(); backend == nil {
		net := sim.New(sim.Config{
			Graph:     nw.g,
			Seed:      o.seed,
			Scheduler: o.scheduler.toSim(),
			Adversary: adv,
			Observer:  observer,
			Trace:     tracer,
		}, runner.Factory)
		eng = net
	} else {
		if entry.Wire == nil {
			return Outcome{}, fmt.Errorf("anonlead: protocol %s has no wire codec; it runs only on TransportSim", entry.Name)
		}
		if adv != nil {
			return Outcome{}, fmt.Errorf("anonlead: WithAdversary requires TransportSim (transport-level faults are a frame-layer seam, not a router feature)")
		}
		cluster, err := transport.NewCluster(ctx, transport.Config{
			Graph:     nw.g,
			Seed:      o.seed,
			Transport: backend,
			Trace:     tracer,
			Observer:  observer,
		}, runner.Factory, entry.Wire)
		if err != nil {
			return Outcome{}, fmt.Errorf("anonlead: %w", err)
		}
		eng = cluster
	}
	defer eng.Close()

	var rounds int
	var runErr error
	if runner.Budget > 0 {
		rounds, runErr = eng.RunContext(ctx, runner.Budget)
	} else {
		every := runner.CheckEvery
		if every < 1 {
			every = 1
		}
		rounds, runErr = eng.RunUntilContext(ctx, runner.MaxRounds, func(completed int) bool {
			return completed%every == 0 && runner.Converged(eng)
		})
	}

	out := Outcome{Protocol: entry.Name, Result: Result{Rounds: rounds}}
	if sp := nw.cachedProfile(mode); sp != nil {
		pub := publicProfile(sp)
		out.Profile = &pub
	}
	m := eng.Metrics()
	fillMetrics(&out.Result, m)
	out.Metrics = metricsFromSim(m)
	if runErr != nil {
		return out, fmt.Errorf("anonlead: %s stopped after %d rounds: %w", entry.Name, rounds, runErr)
	}
	if runner.Budget > 0 {
		if !eng.AllHalted() {
			return out, fmt.Errorf("anonlead: %s did not halt within %d rounds: %w",
				entry.Name, runner.Budget, ErrNotHalted)
		}
	} else if !runner.Converged(eng) {
		return out, fmt.Errorf("anonlead: %s did not stabilize within %d rounds: %w",
			entry.Name, rounds, ErrNotStabilized)
	}

	co := runner.Collect(eng)
	out.Leaders = co.Leaders
	out.Unique = len(co.Leaders) == 1
	out.LeaderID = co.LeaderID
	out.AllKnow = co.AllKnow
	out.Parents = co.Parents
	out.Depths = co.Depths
	if co.HasCertificate {
		out.Certificate = &Certificate{ID: co.CertID, Estimate: co.CertEstimate}
		out.FinalEstimate = co.FinalEstimate
	}
	return out, nil
}
