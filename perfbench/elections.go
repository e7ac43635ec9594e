package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"anonlead"
	"anonlead/internal/spectral"
)

// netSpec names one topology of an election workload.
type netSpec struct {
	family string
	n      int
}

// stream is one protocol on one of the workload's networks. Pass p runs
// input p mod inputs of every stream, one after the other.
type stream struct {
	proto string
	net   int // index into electionWorkload.specs
}

// electionWorkload is a round-robin of single elections through
// anonlead.Network.Run, on the simulator or on the chan transport.
type electionWorkload struct {
	name     string
	specs    []netSpec
	streams  []stream
	inputs   int  // distinct inputs per stream
	overChan bool // run on TransportChan and time rounds instead of elections

	elections []election // pass-major: input k of every stream, then k+1
	pinned    map[string]outcome
}

// newFloodScale is the flood-scale workload: floodmax on a 4096-node
// expander, allflood on the 256-node complete graph and floodmax on a
// 4096-node torus, where the simulator's own routing and construction
// dominate the cost.
func newFloodScale() *electionWorkload {
	return &electionWorkload{
		name:    "flood-scale",
		specs:   []netSpec{{"expander", 4096}, {"complete", 256}, {"torus", 4096}},
		streams: []stream{{"floodmax", 0}, {"allflood", 1}, {"floodmax", 2}},
		inputs:  16,
	}
}

// newTransportChan is the transport-chan workload: ire and walknotify on
// a 64-node expander and floodmax on a 256-node expander, each node a
// goroutine behind the synchronizer-α barrier of the chan transport.
func newTransportChan() *electionWorkload {
	return &electionWorkload{
		name:     "transport-chan",
		specs:    []netSpec{{"expander", 64}, {"expander", 256}},
		streams:  []stream{{"ire", 0}, {"walknotify", 0}, {"floodmax", 1}},
		inputs:   32,
		overChan: true,
	}
}

// graphSeed fixes the election workloads' topologies: --seed draws the
// elections' random streams, not the graphs, so every seed runs the same
// amount of routing and set-up work.
const graphSeed = defaultSeed

func (w *electionWorkload) setup(seed uint64) (setupCost, error) {
	var cost setupCost
	nets := make([]*network, len(w.specs))
	for i, s := range w.specs {
		nw, err := buildNetwork(s.family, s.n, graphSeed, spectral.ModeAuto, &cost)
		if err != nil {
			return setupCost{}, err
		}
		nets[i] = nw
	}
	w.elections = w.elections[:0]
	for k := 0; k < w.inputs; k++ {
		for _, st := range w.streams {
			nw := nets[st.net]
			name := fmt.Sprintf("%s/%s/%d", st.proto, nw.family, nw.n)
			w.elections = append(w.elections, election{
				label: fmt.Sprintf("%s#%d", name, k),
				proto: st.proto,
				net:   nw,
				seed:  electionSeed(seed, name, k),
				pc:    defaultConfig(st.proto, nw),
			})
		}
	}
	ex, err := parseExpectations(expectJSON)
	if err != nil {
		return setupCost{}, err
	}
	w.pinned = pinnedFor(ex, w.name, seed)
	return cost, nil
}

// pass returns the inputs of pass p.
func (w *electionWorkload) pass(p int) []election {
	k := p % w.inputs * len(w.streams)
	return w.elections[k : k+len(w.streams)]
}

// references runs every chan input once on the simulator: the outcome
// each chan election must reproduce.
func (w *electionWorkload) references(ctx context.Context, t *tally) (map[string]outcome, error) {
	if !w.overChan {
		return nil, nil
	}
	refs := make(map[string]outcome, len(w.elections))
	for _, e := range w.elections {
		ref, err := runPublic(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("%s on the simulator: %w", e.label, err)
		}
		t.check(e.label+" (simulator)", checkElection(e, ref, w.pinned, nil))
		refs[e.label] = ref
	}
	return refs, nil
}

// verify checks one election of the loop.
func (w *electionWorkload) verify(t *tally, e election, got outcome, err error, refs map[string]outcome) {
	if err != nil {
		t.check(e.label, err)
		return
	}
	var ref *outcome
	if r, ok := refs[e.label]; ok {
		ref = &r
	}
	t.check(e.label, checkElection(e, got, w.pinned, ref))
}

// options are the Run options of the loop; rounds, when non-nil, receives
// the CPU time between consecutive round callbacks in milliseconds.
func (w *electionWorkload) options(rounds *[]float64) []anonlead.Option {
	if !w.overChan {
		return nil
	}
	var last time.Duration
	return []anonlead.Option{
		anonlead.WithTransport(anonlead.TransportChan),
		anonlead.WithObserver(func(ri anonlead.RoundInfo) {
			if rounds == nil {
				return
			}
			now := cpuTime()
			if ri.Round > 0 {
				*rounds = append(*rounds, ms(now-last))
			}
			last = now
		}),
	}
}

func (w *electionWorkload) measure(seconds float64) (tally, error) {
	ctx := context.Background()
	var t tally
	refs, err := w.references(ctx, &t)
	if err != nil {
		return t, err
	}
	opts := w.options(&t.ops)
	runtime.GC()
	start := time.Now()
	for p := 0; p == 0 || time.Since(start).Seconds() < seconds; p++ {
		pass := startPass()
		for _, e := range w.pass(p) {
			began := cpuTime()
			got, err := runPublic(ctx, e, opts...)
			if !w.overChan {
				t.ops = append(t.ops, ms(cpuTime()-began))
			}
			t.elections++
			t.messages += got.Messages
			w.verify(&t, e, got, err, refs)
		}
		pass.stop(&t)
	}
	return t, nil
}

func (w *electionWorkload) traced(seconds float64, rec *recorder, lt *layerTotals) (tally, error) {
	ctx := context.Background()
	var t tally
	refs, err := w.references(ctx, &t)
	if err != nil {
		return t, err
	}
	opts := w.options(nil)
	tr := &tracer{rec: rec, lt: lt}
	gc := gcCPUSeconds()
	runtime.GC()
	start := time.Now()
	for p := 0; p == 0 || time.Since(start).Seconds() < seconds; p++ {
		pass := startPass()
		for _, e := range w.pass(p) {
			began := time.Now()
			plain, err := runPublic(ctx, e, opts...)
			t.plainWall += time.Since(began)
			t.plainElections++
			w.verify(&t, e, plain, err, refs)

			began = time.Now()
			var got outcome
			if w.overChan {
				got, err = tr.runChan(ctx, e)
			} else {
				got, err = tr.runSim(e)
			}
			t.tracedWall += time.Since(began)
			t.tracedElections++
			t.elections++
			t.messages += got.Messages
			if err == nil && !got.equal(plain) {
				err = fmt.Errorf("traced %v, untraced %v", got, plain)
			}
			t.check(e.label+" (traced)", err)
		}
		pass.stop(&t)
	}
	lt.add("runtime.gc_cpu_s", gcCPUSeconds()-gc)
	return t, nil
}

// pin runs every input once and writes the outcomes as the expectations
// of the workload at the run's seed.
func (w *electionWorkload) pin(path string, seed uint64) error {
	if _, err := w.setup(seed); err != nil {
		return err
	}
	w.pinned = nil
	ctx := context.Background()
	var t tally
	refs, err := w.references(ctx, &t)
	if err != nil {
		return err
	}
	outs := make(map[string]outcome, len(w.elections))
	for _, e := range w.elections {
		got, err := runPublic(ctx, e, w.options(nil)...)
		w.verify(&t, e, got, err, refs)
		outs[e.label] = got
	}
	if t.failed > 0 {
		return fmt.Errorf("%d of %d outcomes failed verification; nothing pinned", t.failed, t.attempted)
	}
	return writeExpectations(path, w.name, seed, outs)
}
