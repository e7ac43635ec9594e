package main

import (
	"context"
	"errors"
	"fmt"

	"anonlead"
	"anonlead/internal/adversary"
	"anonlead/internal/core"
	"anonlead/internal/graph"
	"anonlead/internal/harness"
	"anonlead/internal/rng"
	"anonlead/internal/spectral"
)

// network is one built and profiled topology.
type network struct {
	family string
	n      int
	g      *graph.Graph
	anw    *anonlead.Network
	prof   *spectral.Profile
}

// buildNetwork builds family/n from seed with the derivation the harness
// and anonlead.NewNetwork use, and profiles it under mode. The CPU time
// spent in each step is added to cost.
func buildNetwork(family string, n int, seed uint64, mode spectral.Mode, cost *setupCost) (*network, error) {
	start := cpuTime()
	g, err := harness.Workload{Family: family, N: n}.BuildGraph(seed)
	if err != nil {
		return nil, fmt.Errorf("build %s/%d: %w", family, n, err)
	}
	anw, err := anonlead.NewNetworkFromGraph(g)
	if err != nil {
		return nil, fmt.Errorf("wrap %s/%d: %w", family, n, err)
	}
	built := cpuTime()
	prof, err := spectral.ProfileGraphMode(g, mode.Resolve(n), seed)
	if err != nil {
		return nil, fmt.Errorf("profile %s/%d: %w", family, n, err)
	}
	cost.build += built - start
	cost.profile += cpuTime() - built
	return &network{family: family, n: n, g: g, anw: anw, prof: prof}, nil
}

// election is one fully resolved election input.
type election struct {
	label string // stable name of the input, the key of its expectation
	proto string // registry name
	net   *network
	seed  uint64
	pc    core.ProtoConfig
	adv   *adversary.Spec // nil = fault-free
}

// electionSeed derives the seed of input k of a labelled input stream.
func electionSeed(seed uint64, stream string, k int) uint64 {
	return rng.New(seed).SplitString("perfbench:" + stream).DeriveSeed(uint64(k))
}

// defaultConfig resolves a registry protocol's inputs from the profile the
// way the harness does for a fault-free Table-1 cell.
func defaultConfig(proto string, net *network) core.ProtoConfig {
	switch proto {
	case "ire", "explicit":
		return core.ProtoConfig{N: net.n, TMix: net.prof.MixingTime, Phi: net.prof.Conductance}
	case "walknotify":
		return core.ProtoConfig{N: net.n, TMix: net.prof.MixingTime}
	case "allflood":
		return core.ProtoConfig{N: net.n, Diam: net.prof.Diameter, AllNodes: true}
	default: // floodmax and its alias
		return core.ProtoConfig{N: net.n, Diam: net.prof.Diameter}
	}
}

// protoLayer names the layer a registry protocol's machines belong to.
func protoLayer(proto string) string {
	switch proto {
	case "ire":
		return "core.ire"
	case "explicit":
		return "core.explicit"
	case "revocable":
		return "core.revocable"
	case "walknotify":
		return "baseline.walknotify"
	default: // floodmax, flood, allflood
		return "baseline.flood"
	}
}

// outcome is what verification compares of one election.
type outcome struct {
	Leaders  []int `json:"leaders"`
	Unique   bool  `json:"unique"`
	AllKnow  bool  `json:"all_know"`
	Rounds   int   `json:"rounds"`
	Messages int64 `json:"messages"`
	Bits     int64 `json:"bits"`
	Charged  int64 `json:"charged"`
	Dropped  int64 `json:"dropped,omitempty"`
	Crashed  int   `json:"crashed,omitempty"`
	// Stopped names why a run ended before completing ("not-halted",
	// "not-stabilized"); empty for a completed election.
	Stopped string `json:"stopped,omitempty"`
}

// equal reports whether two outcomes agree in every field.
func (o outcome) equal(p outcome) bool {
	if len(o.Leaders) != len(p.Leaders) {
		return false
	}
	for i := range o.Leaders {
		if o.Leaders[i] != p.Leaders[i] {
			return false
		}
	}
	return o.Unique == p.Unique && o.AllKnow == p.AllKnow && o.Rounds == p.Rounds &&
		o.Messages == p.Messages && o.Bits == p.Bits && o.Charged == p.Charged &&
		o.Dropped == p.Dropped && o.Crashed == p.Crashed && o.Stopped == p.Stopped
}

func (o outcome) String() string {
	s := fmt.Sprintf("leaders=%v unique=%t all_know=%t rounds=%d msgs=%d bits=%d charged=%d",
		o.Leaders, o.Unique, o.AllKnow, o.Rounds, o.Messages, o.Bits, o.Charged)
	if o.Dropped != 0 || o.Crashed != 0 {
		s += fmt.Sprintf(" dropped=%d crashed=%d", o.Dropped, o.Crashed)
	}
	if o.Stopped != "" {
		s += " stopped=" + o.Stopped
	}
	return s
}

// stopReason classifies a Run error: the two sentinel stops that still
// carry a measured partial outcome, or an unexpected error.
func stopReason(err error) (string, error) {
	switch {
	case err == nil:
		return "", nil
	case errors.Is(err, anonlead.ErrNotHalted):
		return "not-halted", nil
	case errors.Is(err, anonlead.ErrNotStabilized):
		return "not-stabilized", nil
	default:
		return "", err
	}
}

// runPublic runs e through the public anonlead.Network.Run path.
func runPublic(ctx context.Context, e election, extra ...anonlead.Option) (outcome, error) {
	opts := []anonlead.Option{anonlead.WithSeed(e.seed), anonlead.WithProtoConfig(e.pc)}
	if e.adv != nil {
		opts = append(opts, anonlead.WithAdversary(publicAdversary(*e.adv)))
	}
	out, err := e.net.anw.Run(ctx, e.proto, append(opts, extra...)...)
	stopped, err := stopReason(err)
	if err != nil {
		return outcome{}, err
	}
	return outcome{
		Leaders:  out.Leaders,
		Unique:   out.Unique,
		AllKnow:  out.AllKnow,
		Rounds:   out.Rounds,
		Messages: out.Metrics.Messages,
		Bits:     out.Metrics.Bits,
		Charged:  out.Metrics.ChargedRounds,
		Dropped:  out.Metrics.Dropped,
		Crashed:  out.Metrics.Crashed,
		Stopped:  stopped,
	}, nil
}

// publicAdversary mirrors an internal fault spec into the public one,
// field for field, as the harness does.
func publicAdversary(s adversary.Spec) anonlead.AdversarySpec {
	return anonlead.AdversarySpec{
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
