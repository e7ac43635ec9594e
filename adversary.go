package anonlead

import (
	"anonlead/internal/adversary"
	"anonlead/internal/sim"
)

// Scheduler selects how node steps are executed each round. All schedulers
// produce bit-identical results: randomness is pre-split per node and
// routing is always performed in node order, so the choice is purely a
// throughput knob.
type Scheduler int

const (
	// Sequential runs node steps in index order on the calling goroutine.
	Sequential Scheduler = iota
	// WorkerPool fans node steps out over a bounded goroutine pool.
	WorkerPool
)

// String names the scheduler.
func (s Scheduler) String() string {
	switch s {
	case WorkerPool:
		return "workerpool"
	default:
		return "sequential"
	}
}

// toSim maps the public scheduler onto the simulator's.
func (s Scheduler) toSim() sim.Scheduler {
	if s == WorkerPool {
		return sim.WorkerPool
	}
	return sim.Sequential
}

// AdversarySpec declares a deterministic fault-injection adversary, the
// public mirror of the spec the fault-injection sweeps record in their
// bench artifacts. The zero value means "no adversary": a run with a zero
// spec is byte-identical to one without WithAdversary at all, so
// degradation curves can anchor at a genuinely unperturbed cell.
//
// Every fault decision is a pure function of (seed, round, edge/node) —
// never of call order — so fault-injected runs stay bit-identical across
// all schedulers. Dropped and delayed packets still count in Messages,
// Bits and link-slot charging: the sender transmitted them.
type AdversarySpec struct {
	// Loss is the per-packet Bernoulli drop probability.
	Loss float64

	// CrashFraction is the expected fraction of nodes that crash-stop;
	// each crashing node picks a uniform crash round in [0, CrashBy].
	CrashFraction float64
	// CrashBy is the last round at which a sampled crash may fire.
	CrashBy int
	// CrashSchedule fixes exact (node → round) crashes instead of
	// sampling them.
	CrashSchedule map[int]int

	// Churn is the per-edge per-round down probability.
	Churn float64
	// ChurnPreserve keeps a BFS spanning tree up so churn never
	// disconnects the live graph.
	ChurnPreserve bool

	// DelayProb is the probability a delivered packet is late.
	DelayProb float64
	// MaxDelay bounds the lateness (uniform 1..MaxDelay extra rounds).
	MaxDelay int

	// AdaptiveCrash enables the traffic-adaptive crash adversary: every
	// AdaptiveWindow rounds the AdaptiveCrash busiest nodes of that window
	// crash-stop — targeting the busiest node approximates targeting the
	// emerging leader. Victims are a pure function of the observed traffic
	// (no extra randomness), so adaptive runs stay deterministic per seed
	// and bit-identical across schedulers. 0 disables.
	AdaptiveCrash int
	// AdaptiveWindow is the traffic-observation window in rounds
	// (0 = default 8).
	AdaptiveWindow int
	// AdaptiveStrikes bounds how many windows claim victims before the
	// adaptive adversary goes dormant (0 = default 1).
	AdaptiveStrikes int
}

// internal maps the public spec onto the runtime one, field for field.
func (s AdversarySpec) internal() adversary.Spec {
	return adversary.Spec{
		Loss:            s.Loss,
		CrashFraction:   s.CrashFraction,
		CrashBy:         s.CrashBy,
		CrashSchedule:   s.CrashSchedule,
		Churn:           s.Churn,
		ChurnPreserve:   s.ChurnPreserve,
		DelayProb:       s.DelayProb,
		MaxDelay:        s.MaxDelay,
		AdaptiveCrash:   s.AdaptiveCrash,
		AdaptiveWindow:  s.AdaptiveWindow,
		AdaptiveStrikes: s.AdaptiveStrikes,
	}
}

// IsZero reports whether the spec configures no perturbation at all.
// Rates of exactly zero disable their primitive.
func (s AdversarySpec) IsZero() bool { return s.internal().IsZero() }

// Validate rejects out-of-range parameters (probabilities outside [0,1],
// negative rounds).
func (s AdversarySpec) Validate() error { return s.internal().Validate() }

// Descriptor canonically names the configuration, e.g.
// "loss=0.1,crash=0.25@16,churn=0.05+conn,delay=0.5x3". The grammar is a
// comma-joined list of the active primitives, each rendered with minimal
// decimal probabilities:
//
//	loss=<p>              Bernoulli packet loss at rate p
//	crash=<f>@<r>         fraction f of nodes crash by round r
//	crashsched=<k>        k explicitly scheduled crashes
//	churn=<p>[+conn]      per-edge downtime at rate p (+conn preserves
//	                      connectivity via a spanning tree)
//	delay=<p>x<d>         delivery jitter: probability p, 1..d rounds late
//	adaptive=<k>@<w>[x<s>] traffic-adaptive crashes: k busiest nodes per
//	                      w-round window, s strike windows (omitted at the
//	                      default s=1); defaults are rendered resolved
//
// A zero spec yields "". The descriptor is part of a sweep cell's
// identity in the bench artifacts, so it is stable across versions.
func (s AdversarySpec) Descriptor() string { return s.internal().Descriptor() }
