package main

import (
	"context"
	"fmt"
	"time"

	"anonlead/internal/adversary"
	"anonlead/internal/core"
	"anonlead/internal/sim"
	"anonlead/internal/transport"
)

// tracer re-drives elections outside the program with every layer
// boundary wrapped: it builds the protocol through core.Lookup, runs it on
// sim.New or transport.NewCluster with a probing machine factory, and reads
// the outcome back through an unwrapping view. It resolves each election
// exactly as anonlead.Network.Run does, so a traced election must reproduce
// the untraced outcome.
type tracer struct {
	rec *recorder
	lt  *layerTotals
}

// prepared is an election resolved into a runnable protocol.
type prepared struct {
	entry  core.Entry
	runner core.Runner
	adv    sim.Adversary
	layer  string
}

// prepare resolves e's configuration the way anonlead.Network.Run does.
func prepare(e election) (prepared, error) {
	entry, ok := core.Lookup(e.proto)
	if !ok {
		return prepared{}, fmt.Errorf("unknown protocol %q", e.proto)
	}
	pc := e.pc
	pc.TrueN = e.net.n
	if pc.N == 0 {
		pc.N = e.net.n
	}
	var adv sim.Adversary
	if e.adv != nil {
		var err error
		adv, err = e.adv.Build(e.net.g, adversary.DeriveRunSeed(e.seed))
		if err != nil {
			return prepared{}, fmt.Errorf("adversary: %w", err)
		}
	}
	if adv != nil {
		pc.MaxDelay = adv.MaxDelay()
		pc.Faulted = true
	}
	if entry.Needs&core.NeedTMix != 0 && pc.TMix == 0 {
		pc.TMix = e.net.prof.MixingTime
	}
	if entry.Needs&core.NeedPhi != 0 && pc.Phi == 0 {
		pc.Phi = e.net.prof.Conductance
	}
	if entry.Needs&core.NeedDiam != 0 && pc.Diam == 0 {
		pc.Diam = e.net.prof.Diameter
	}
	runner, err := entry.Build(pc)
	if err != nil {
		return prepared{}, fmt.Errorf("build %s: %w", entry.Name, err)
	}
	return prepared{entry: entry, runner: runner, adv: adv, layer: protoLayer(entry.Name)}, nil
}

// hooks times the registry's Converged and Collect calls.
type hooks struct {
	runner core.Runner
	view   view
	busy   time.Duration
	calls  int64
}

func (h *hooks) converged() bool {
	t := time.Now()
	ok := h.runner.Converged(h.view)
	h.busy += time.Since(t)
	h.calls++
	return ok
}

// finish applies Run's completion checks and collects the outcome.
func (h *hooks) finish(out *outcome, allHalted bool) {
	if h.runner.Budget > 0 {
		if !allHalted {
			out.Stopped = "not-halted"
			return
		}
	} else if !h.converged() {
		out.Stopped = "not-stabilized"
		return
	}
	t := time.Now()
	co := h.runner.Collect(h.view)
	h.busy += time.Since(t)
	h.calls++
	out.Leaders = co.Leaders
	out.Unique = len(co.Leaders) == 1
	out.AllKnow = co.AllKnow
}

// runSim runs e traced on the in-memory simulator.
func (tr *tracer) runSim(e election) (outcome, error) {
	p, err := prepare(e)
	if err != nil {
		return outcome{}, err
	}
	rec, lt := tr.rec, tr.lt
	eid := rec.election()
	root := rec.open("election", -1, eid)
	defer rec.close(root)
	n := e.net.n
	pr := newProbes(n)

	a0 := mallocs()
	t0 := time.Now()
	nw := sim.New(sim.Config{Graph: e.net.g, Seed: e.seed, Adversary: p.adv}, pr.factory(p.runner.Factory))
	t1 := time.Now()
	a1 := mallocs()
	defer nw.Close()
	init, _, _ := pr.totals()
	newID := rec.fold("sim.new", root, eid, t0, t1, t1.Sub(t0), 1)
	rec.fold(p.layer+".init", newID, eid, t0, t1, init+pr.build, int64(n))
	lt.add("sim.new_s", (t1.Sub(t0) - init - pr.build).Seconds())
	lt.newAllocs += float64(a1 - a0)
	lt.newCalls++

	// The round loop of Network.RunContext / RunUntilContext, one Step at
	// a time so each round is timed.
	h := &hooks{runner: p.runner, view: view{nw}}
	var wall time.Duration
	rounds := 0
	step := func() bool {
		t := time.Now()
		ok := nw.Step()
		wall += time.Since(t)
		return ok
	}
	a2 := mallocs()
	rs := time.Now()
	if p.runner.Budget > 0 {
		for rounds < p.runner.Budget && step() {
			rounds++
		}
	} else {
		every := p.runner.CheckEvery
		if every < 1 {
			every = 1
		}
		for rounds < p.runner.MaxRounds && step() {
			rounds++
			if rounds%every == 0 && h.converged() {
				break
			}
		}
	}
	re := time.Now()
	a3 := mallocs()

	m := nw.Metrics()
	out := outcome{Rounds: rounds, Messages: m.Messages, Bits: m.Bits, Charged: m.ChargedRounds,
		Dropped: m.Dropped, Crashed: m.Crashes}
	h.finish(&out, nw.AllHalted())

	_, busy, steps := pr.totals()
	roundID := rec.fold("sim.round", root, eid, rs, re, wall, int64(rounds))
	rec.fold(p.layer+".step", roundID, eid, rs, re, busy, steps)
	rec.fold("core.collect", root, eid, rs, time.Now(), h.busy, h.calls)
	lt.add("sim.round_s", wall.Seconds())
	lt.add("sim.round_self_s", (wall - busy).Seconds())
	lt.add(p.layer+".step_s", busy.Seconds())
	lt.add("core.collect_s", h.busy.Seconds())
	lt.allocs[p.layer] += float64(a3 - a2)
	lt.msgs[p.layer] += float64(m.Messages)
	lt.add("sim.rounds", float64(rounds))
	lt.add("sim.messages", float64(m.Messages))
	lt.add("sim.node_steps", float64(steps))
	lt.add("adversary.dropped", float64(m.Dropped))
	lt.add("adversary.crashed", float64(m.Crashes))
	return out, nil
}

// runChan runs e traced as a transport cluster over in-process channels.
func (tr *tracer) runChan(ctx context.Context, e election) (outcome, error) {
	p, err := prepare(e)
	if err != nil {
		return outcome{}, err
	}
	if p.adv != nil {
		return outcome{}, fmt.Errorf("%s: the transport backend takes no adversary", e.label)
	}
	rec, lt := tr.rec, tr.lt
	eid := rec.election()
	root := rec.open("election", -1, eid)
	defer rec.close(root)
	pr := newProbes(e.net.n)
	pt := &probeTransport{inner: transport.ChanTransport{}, meters: pr.meters}

	// Rounds are delimited by the observer callbacks, which run on this
	// goroutine after every node reported the round.
	var prev time.Time
	var wall, sync time.Duration
	var rounds int64
	observe := func(sim.RoundInfo) {
		now := time.Now()
		w := now.Sub(prev)
		prev = now
		wall += w
		sync += w - pr.critical()
		rounds++
	}
	t0 := time.Now()
	cl, err := transport.NewCluster(ctx, transport.Config{Graph: e.net.g, Seed: e.seed, Transport: pt, Observer: observe},
		pr.factory(p.runner.Factory), p.entry.Wire)
	t1 := time.Now()
	if err != nil {
		return outcome{}, err
	}
	defer cl.Close()
	pr.critical() // drop the Init pseudo-round's writes

	h := &hooks{runner: p.runner, view: view{cl}}
	prev = time.Now()
	rs := prev
	var executed int
	if p.runner.Budget > 0 {
		executed, err = cl.RunContext(ctx, p.runner.Budget)
	} else {
		every := p.runner.CheckEvery
		if every < 1 {
			every = 1
		}
		executed, err = cl.RunUntilContext(ctx, p.runner.MaxRounds, func(completed int) bool {
			done := completed%every == 0 && h.converged()
			prev = time.Now() // the check is not part of the next round
			return done
		})
	}
	re := time.Now()
	if err != nil {
		return outcome{}, fmt.Errorf("%s: %w", e.label, err)
	}
	m := cl.Metrics()
	out := outcome{Rounds: executed, Messages: m.Messages, Bits: m.Bits, Charged: m.ChargedRounds}
	h.finish(&out, cl.AllHalted())
	cl.Close() // parks every driver, so the meters are final

	init, busy, _ := pr.totals()
	var write time.Duration
	var frames, bytes int64
	for i := range pr.meters {
		write += pr.meters[i].writeBusy
		frames += pr.meters[i].frames
		bytes += pr.meters[i].bytes
	}
	read := time.Duration(pt.readWait.Load())
	newID := rec.fold("transport.new", root, eid, t0, t1, t1.Sub(t0), 1)
	rec.fold("transport.connect", newID, eid, t0, t1, pt.connect, 1)
	rec.fold(p.layer+".init", newID, eid, t0, re, init+pr.build, int64(e.net.n))
	roundID := rec.fold("transport.round", root, eid, rs, re, wall, rounds)
	rec.fold(p.layer+".step", roundID, eid, rs, re, busy, rounds)
	rec.fold("transport.write", roundID, eid, rs, re, write, frames)
	rec.fold("transport.sync", roundID, eid, rs, re, sync, rounds)
	rec.fold("transport.read_wait", root, eid, t0, re, read, 1)
	rec.fold("core.collect", root, eid, rs, time.Now(), h.busy, h.calls)
	lt.add("transport.connect_s", pt.connect.Seconds())
	lt.add("transport.node_step_s", busy.Seconds())
	lt.add(p.layer+".step_s", busy.Seconds())
	lt.add("transport.write_s", write.Seconds())
	lt.add("transport.read_wait_s", read.Seconds())
	lt.add("transport.sync_s", sync.Seconds())
	lt.add("transport.frames", float64(frames))
	lt.add("transport.frame_bytes", float64(bytes))
	lt.add("core.collect_s", h.busy.Seconds())
	return out, nil
}
