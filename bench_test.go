// Benchmarks regenerating every evaluation artifact of the paper
// (Table 1 cells, Figures 1-2, and the DESIGN.md ablations X1-X3).
// Each benchmark runs full protocol executions and reports, besides
// wall-clock, the protocol-level costs the paper bounds: messages, bits,
// logical rounds and CONGEST-charged rounds per election.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The mapping from benchmarks to paper artifacts is indexed in DESIGN.md
// §4 and the measured-vs-paper discussion lives in EXPERIMENTS.md.
//
// This is an external test package (anonlead_test): it drives the
// experiment harness, which itself runs on the public anonlead API, so an
// internal test package would be an import cycle.
package anonlead_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"anonlead"
	"anonlead/internal/adversary"
	"anonlead/internal/graph"
	"anonlead/internal/harness"
	"anonlead/internal/obs"
	"anonlead/internal/rng"
	"anonlead/internal/sim"
)

// benchCell builds the workload network behind sweep cell (family, n) at
// seed 1 and profiles it before any timer starts.
func benchCell(b *testing.B, family string, n int) (*anonlead.Network, anonlead.Profile) {
	b.Helper()
	nw, err := anonlead.NewNetwork(family, n, 1)
	if err != nil {
		b.Fatal(err)
	}
	prof, err := nw.Profile(anonlead.ProfileExact)
	if err != nil {
		b.Fatal(err)
	}
	return nw, prof
}

// benchElections runs b.N elections of proto on nw at seeds 1..b.N and
// attaches the protocol costs per election to the benchmark output.
// Callers pass every profiled input explicitly, so the timed loop never
// profiles.
func benchElections(b *testing.B, nw *anonlead.Network, proto string, opts ...anonlead.Option) {
	b.Helper()
	var msgs, bits, rounds, charged float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := nw.Run(context.Background(), proto, append([]anonlead.Option{anonlead.WithSeed(uint64(i) + 1)}, opts...)...)
		if err != nil {
			b.Fatal(err)
		}
		msgs += float64(out.Metrics.Messages)
		bits += float64(out.Metrics.Bits)
		rounds += float64(out.Rounds)
		charged += float64(out.Metrics.ChargedRounds)
	}
	n := float64(b.N)
	b.ReportMetric(msgs/n, "msgs/election")
	b.ReportMetric(bits/n, "bits/election")
	b.ReportMetric(rounds/n, "rounds/election")
	b.ReportMetric(charged/n, "charged/election")
}

// BenchmarkTable1IRE measures the paper's Section 4 protocol (Table 1 row
// "n, Φ, tmix — this work": Õ(√(n·tmix/Φ)) msgs, O(tmix·log² n) time).
func BenchmarkTable1IRE(b *testing.B) {
	cells := []struct {
		family string
		n      int
	}{
		{"expander", 64}, {"expander", 128}, {"expander", 256},
		{"hypercube", 64}, {"hypercube", 256},
		{"cycle", 32}, {"cycle", 64},
		{"complete", 64}, {"complete", 128},
		{"torus", 64},
	}
	for _, c := range cells {
		b.Run(fmt.Sprintf("%s/n=%d", c.family, c.n), func(b *testing.B) {
			nw, prof := benchCell(b, c.family, c.n)
			benchElections(b, nw, anonlead.ProtoIRE,
				anonlead.WithMixingTime(prof.MixingTime), anonlead.WithConductance(prof.Conductance))
		})
	}
}

// BenchmarkTable1Gilbert measures the Gilbert-class baseline (Table 1 row
// "n [10]": O(tmix·√n·log^{7/2} n) msgs).
func BenchmarkTable1Gilbert(b *testing.B) {
	cells := []struct {
		family string
		n      int
	}{
		{"expander", 64}, {"expander", 128}, {"expander", 256},
		{"cycle", 32}, {"cycle", 64},
		{"complete", 64}, {"complete", 128},
	}
	for _, c := range cells {
		b.Run(fmt.Sprintf("%s/n=%d", c.family, c.n), func(b *testing.B) {
			nw, prof := benchCell(b, c.family, c.n)
			benchElections(b, nw, anonlead.ProtoWalkNotify, anonlead.WithMixingTime(prof.MixingTime))
		})
	}
}

// BenchmarkTable1Flood measures the Kutten-class flooding baseline
// (Table 1 rows "n, D [16]": O(m) msgs, O(D) time).
func BenchmarkTable1Flood(b *testing.B) {
	cells := []struct {
		family string
		n      int
	}{
		{"expander", 64}, {"expander", 256},
		{"cycle", 64}, {"complete", 64}, {"complete", 256},
	}
	for _, c := range cells {
		b.Run(fmt.Sprintf("%s/n=%d", c.family, c.n), func(b *testing.B) {
			nw, prof := benchCell(b, c.family, c.n)
			benchElections(b, nw, anonlead.ProtoFloodMax, anonlead.WithDiameter(prof.Diameter))
		})
	}
}

// BenchmarkTable1Revocable measures the Section 5.2 protocol at the
// faithful Theorem 3 schedule on tiny complete graphs (Table 1 revocable
// rows (*)). The polynomial schedules bound what is simulable; see
// EXPERIMENTS.md.
func BenchmarkTable1Revocable(b *testing.B) {
	for _, n := range []int{3, 4, 6} {
		b.Run(fmt.Sprintf("complete/n=%d", n), func(b *testing.B) {
			nw, prof := benchCell(b, "complete", n)
			benchElections(b, nw, anonlead.ProtoRevocable,
				anonlead.WithEpsilon(0.5), anonlead.WithIsoperimetric(prof.Isoperimetric))
		})
	}
}

// BenchmarkFigure1PumpingWheel measures one wheel execution of the
// impossibility experiment (Figure 1 witness construction): the known-n
// protocol told n=8 running on a wheel with the given witness count.
func BenchmarkFigure1PumpingWheel(b *testing.B) {
	for _, witnesses := range []int{1, 2} {
		b.Run(fmt.Sprintf("witnesses=%d", witnesses), func(b *testing.B) {
			leaders := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				points, err := harness.SplitBrainExperiment(8, []int{witnesses}, 1, uint64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				leaders += int(points[0].MeanLeaders)
			}
			b.ReportMetric(float64(leaders)/float64(b.N), "leaders/wheel")
		})
	}
}

// BenchmarkFigure2SplitBrain measures the Figure 2 series point: the
// multi-leader probability estimate over a small trial batch.
func BenchmarkFigure2SplitBrain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		points, err := harness.SplitBrainExperiment(8, []int{2}, 3, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(points[0].MultiLeader)/float64(points[0].Trials), "P(multi)")
		b.ReportMetric(points[0].MeanLeaders, "E[leaders]")
	}
}

// BenchmarkAblationCautious measures cautious broadcast in isolation
// (DESIGN.md X1, paper Lemma 1).
func BenchmarkAblationCautious(b *testing.B) {
	for _, x := range []int{4, 16} {
		b.Run(fmt.Sprintf("x=%d", x), func(b *testing.B) {
			w := harness.Workload{Family: "expander", N: 128}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				points, _, err := harness.AblationCautious(w, []int{x}, 1, uint64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(points[0].MeanTerritory, "territory")
				b.ReportMetric(points[0].Messages, "msgs")
			}
		})
	}
}

// BenchmarkAblationWalks measures the full protocol at sub- and
// super-critical walk counts (DESIGN.md X2, paper Lemma 2).
func BenchmarkAblationWalks(b *testing.B) {
	for _, factor := range []float64{0.5, 1, 2} {
		b.Run(fmt.Sprintf("factor=%g", factor), func(b *testing.B) {
			nw, prof := benchCell(b, "expander", 128)
			success := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := nw.Run(context.Background(), anonlead.ProtoIRE, anonlead.WithSeed(uint64(i)+1),
					anonlead.WithMixingTime(prof.MixingTime), anonlead.WithConductance(prof.Conductance),
					anonlead.WithWalkFactor(factor))
				if err != nil {
					b.Fatal(err)
				}
				if out.Unique {
					success++
				}
			}
			b.ReportMetric(float64(success)/float64(b.N), "successRate")
		})
	}
}

// sweepSpecs is the orchestrator benchmark matrix: a cross-protocol,
// cross-family slice of the Table 1 workload, including a diameter-2
// clique-of-cliques cell and a knowledge-ablation cell.
func sweepSpecs() []harness.CellSpec {
	opts := harness.TrialOpts{Trials: 4, Seed: 1}
	return []harness.CellSpec{
		{Protocol: harness.ProtoIRE, Workload: harness.Workload{Family: "expander", N: 64}, Opts: opts},
		{Protocol: harness.ProtoIRE, Workload: harness.Workload{Family: "cycle", N: 32}, Opts: opts},
		{Protocol: harness.ProtoIRE, Workload: harness.Workload{Family: "diam2", N: 33}, Opts: opts},
		{Protocol: harness.ProtoFlood, Workload: harness.Workload{Family: "complete", N: 32}, Opts: opts},
		{Protocol: harness.ProtoWalkNotify, Workload: harness.Workload{Family: "expander", N: 64}, Opts: opts},
		{Protocol: harness.ProtoIRE, Workload: harness.Workload{Family: "expander", N: 64},
			Opts: harness.TrialOpts{Trials: 4, Seed: 1, PresumedN: 128}},
	}
}

// BenchmarkHarnessSweep measures the experiment orchestrator end to end:
// the same sweep matrix run sequentially and fanned out over the sharded
// worker pool (bit-identical results; the ratio is the orchestration
// speedup). It writes no artifact: BENCH_harness.json is the 81-cell gate
// sweep that `make bench-artifact` produces.
func BenchmarkHarnessSweep(b *testing.B) {
	specs := sweepSpecs()
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := harness.RunSweepSequential(specs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("parallel/workers=%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		o := harness.Orchestrator{}
		for i := 0; i < b.N; i++ {
			if _, err := o.RunSweep(specs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// obsPayload/obsChatter replicate the sim package's internal chatter
// benchmark machine from outside: every node broadcasts one shared fixed
// payload per round and never halts, so steady-state Step cost is pure
// simulator round loop with no protocol logic.
type obsPayload struct{ bits int }

func (p *obsPayload) Bits() int { return p.bits }

type obsChatter struct{ msg *obsPayload }

func (m *obsChatter) Init(ctx *sim.Context) {}

func (m *obsChatter) Step(ctx *sim.Context, inbox []sim.Packet) { ctx.Broadcast(m.msg) }

func obsChatterFactory() sim.Factory {
	msg := &obsPayload{bits: 16}
	return func(node, degree int, r *rng.RNG) sim.Machine { return &obsChatter{msg: msg} }
}

// roundProfileObserver is the harness's observer adapter shape: cumulative
// sim metrics in, per-round deltas into an obs.RoundProfile.
func roundProfileObserver(rp *obs.RoundProfile) func(sim.RoundInfo) {
	o := rp.RoundObserver()
	return func(ri sim.RoundInfo) { o(ri.Metrics.Messages, int64(ri.Halted)) }
}

// TestRoundLoopZeroAllocObservabilityDisabled is the PR-8 regression
// guard: adding the telemetry subsystem must not cost the round loop its
// steady-state zero-allocation property when observability is off (the
// default). It also pins the disabled obs entry points themselves —
// Span and the counters are what the harness calls around every cell.
func TestRoundLoopZeroAllocObservabilityDisabled(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("observability enabled at test start; guard must measure the default-off path")
	}
	nw := sim.New(sim.Config{Graph: graph.Torus(8, 8)}, obsChatterFactory())
	nw.Run(8) // warm mailboxes, send buffers, accounting chains
	if avg := testing.AllocsPerRun(50, func() { nw.Step() }); avg > 0.5 {
		t.Fatalf("steady-state round allocates %.1f objects with observability disabled, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, func() { obs.Span("trials")() }); avg > 0 {
		t.Fatalf("disabled obs.Span allocates %.1f objects, want 0", avg)
	}
}

// TestRoundLoopZeroAllocWithStaticAdversary extends the zero-allocation
// guard across the fault-injection path: a composed static (non-adaptive)
// adversary — per-packet loss decisions plus a crash schedule — must not
// cost the warmed round loop a single allocation. The adversaries' random
// decisions run on value-typed reseeded RNG chains precisely so this
// holds; only traffic-adaptive adversaries buy a per-round traffic
// buffer.
func TestRoundLoopZeroAllocWithStaticAdversary(t *testing.T) {
	g := graph.Torus(8, 8)
	adv := adversary.Compose(
		adversary.NewLoss(0.2, 7),
		adversary.NewCrashSchedule(g.N(), map[int]int{4: 3, 12: 9}),
	)
	nw := sim.New(sim.Config{Graph: g, Adversary: adv}, obsChatterFactory())
	nw.Run(16) // warm past both scheduled crashes
	if avg := testing.AllocsPerRun(50, func() { nw.Step() }); avg > 0.5 {
		t.Fatalf("steady-state round allocates %.1f objects with a static adversary, want 0", avg)
	}
	if nw.Metrics().Dropped == 0 {
		t.Fatal("loss adversary dropped nothing; the guard measured a dead fault path")
	}
}

// TestRoundLoopObservedAllocBound bounds the enabled-path overhead: with a
// round-profile observer attached (the heaviest per-round consumer the
// harness installs), a warmed round must still allocate nothing — the
// profile's buckets are fixed arrays and the observer adapter passes
// structs by value.
func TestRoundLoopObservedAllocBound(t *testing.T) {
	rp := &obs.RoundProfile{}
	nw := sim.New(sim.Config{
		Graph:    graph.Torus(8, 8),
		Observer: roundProfileObserver(rp),
	}, obsChatterFactory())
	nw.Run(8)
	if avg := testing.AllocsPerRun(50, func() { nw.Step() }); avg > 0.5 {
		t.Fatalf("observed round allocates %.1f objects/round, want 0", avg)
	}
	if rp.Rounds == 0 || rp.TotalMsgs == 0 {
		t.Fatalf("observer fed no data: %+v", rp)
	}
}

// allocsPerMessage runs protocol on a fresh family/n network (graph seed
// 1) once per seed through Network.Run and returns heap allocations per
// message sent. A first run at another seed warms the network's profile
// cache, so the figure covers machine state, simulator setup and the
// round loop, not the spectral profile.
func allocsPerMessage(t *testing.T, protocol, family string, n int, seeds ...uint64) float64 {
	t.Helper()
	nw, err := anonlead.NewNetwork(family, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Run(context.Background(), protocol, anonlead.WithSeed(1000)); err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	var msgs int64
	for _, seed := range seeds {
		out, err := nw.Run(context.Background(), protocol, anonlead.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		msgs += out.Messages
	}
	runtime.ReadMemStats(&ms)
	if msgs == 0 {
		t.Fatalf("%s on %s/%d sent no messages", protocol, family, n)
	}
	return float64(ms.Mallocs-before) / float64(msgs)
}

// TestProtocolAllocBudgets pins heap allocations per message for each
// protocol whose per-node state is kept in insertion-sorted slices. About
// one allocation per message is the payload boxed into its interface;
// budgets sit a little above the measured figures (ire 1.30 and 1.05,
// walknotify 1.07, revocable 0.33). State rebuilt from maps every step
// measured 5.5 and 16.1 for ire and 10.4 for walknotify, so it fails.
func TestProtocolAllocBudgets(t *testing.T) {
	cases := []struct {
		protocol, family string
		n                int
		seeds            []uint64
		budget           float64
	}{
		{"ire", "expander", 256, []uint64{1, 2, 3}, 1.45},
		{"ire", "cycle", 64, []uint64{1, 2, 3}, 1.2},
		{"walknotify", "expander", 256, []uint64{1, 2, 3}, 1.2},
		{"revocable", "complete", 4, []uint64{1}, 0.37},
	}
	for _, c := range cases {
		got := allocsPerMessage(t, c.protocol, c.family, c.n, c.seeds...)
		t.Logf("%s %s/%d: %.3f allocs/msg (budget %.2f)", c.protocol, c.family, c.n, got, c.budget)
		if got > c.budget {
			t.Errorf("%s on %s/%d allocates %.2f objects per message, budget %.2f", c.protocol, c.family, c.n, got, c.budget)
		}
	}
}

// BenchmarkNetworkRoundObserved measures the absolute round-loop overhead
// of the round-profile observer against the sim package's bare
// BenchmarkNetworkRound numbers.
func BenchmarkNetworkRoundObserved(b *testing.B) {
	rp := &obs.RoundProfile{}
	nw := sim.New(sim.Config{
		Graph:    graph.Torus(16, 16),
		Observer: roundProfileObserver(rp),
	}, obsChatterFactory())
	nw.Run(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Step()
	}
}

// BenchmarkAblationDiffusion measures the exact diffusion detector sweep
// (DESIGN.md X3, paper Lemmas 5-8).
func BenchmarkAblationDiffusion(b *testing.B) {
	w := harness.Workload{Family: "cycle", N: 12}
	for i := 0; i < b.N; i++ {
		points, err := harness.AblationDiffusion(w, 0.5, 32, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		last := points[len(points)-1]
		b.ReportMetric(last.MaxPot, "maxPotential")
	}
}
