package baseline

import (
	"fmt"
	"testing"

	"anonlead/internal/graph"
	"anonlead/internal/rng"
	"anonlead/internal/sim"
	"anonlead/internal/spectral"
)

func runFlood(t *testing.T, g *graph.Graph, cfg FloodConfig, seed uint64) (int, []FloodOutput) {
	t.Helper()
	factory, err := NewFloodFactory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nw := sim.New(sim.Config{Graph: g, Seed: seed}, factory)
	nw.Run(cfg.Rounds() + 2)
	if !nw.AllHalted() {
		t.Fatal("flood did not halt")
	}
	leaders := 0
	outs := make([]FloodOutput, g.N())
	for v := range outs {
		outs[v] = nw.Machine(v).(*FloodMachine).Output()
		if outs[v].Leader {
			leaders++
		}
	}
	return leaders, outs
}

func TestFloodConfigValidation(t *testing.T) {
	if _, err := NewFloodFactory(FloodConfig{N: 1, Diam: 3}); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := NewFloodFactory(FloodConfig{N: 8, Diam: 0}); err == nil {
		t.Fatal("diam=0 accepted")
	}
}

func TestFloodAllNodesAlwaysUnique(t *testing.T) {
	// With every node a candidate, FloodMax must elect exactly one leader
	// every time (max of distinct random IDs; collisions are ~n²/n⁴).
	for _, g := range []*graph.Graph{
		graph.Cycle(16), graph.Complete(12), graph.Star(9), graph.Grid(4, 4),
	} {
		cfg := FloodConfig{N: g.N(), Diam: g.Diameter(), AllNodes: true}
		for s := uint64(0); s < 5; s++ {
			leaders, outs := runFlood(t, g, cfg, 600+s)
			if leaders != 1 {
				t.Fatalf("n=%d seed=%d: %d leaders", g.N(), s, leaders)
			}
			// Every node must have learned the global maximum.
			var max uint64
			for _, o := range outs {
				if o.ID > max {
					max = o.ID
				}
			}
			for v, o := range outs {
				if o.MaxSeen != max {
					t.Fatalf("node %d saw %d want %d", v, o.MaxSeen, max)
				}
			}
		}
	}
}

func TestFloodSampledCandidates(t *testing.T) {
	g := graph.Torus(4, 4)
	cfg := FloodConfig{N: g.N(), Diam: g.Diameter()}
	wins, zero := 0, 0
	const trials = 20
	for s := uint64(0); s < trials; s++ {
		leaders, outs := runFlood(t, g, cfg, 800+s)
		cands := 0
		for _, o := range outs {
			if o.Candidate {
				cands++
			}
		}
		switch {
		case cands == 0 && leaders == 0:
			zero++
		case leaders == 1:
			wins++
		default:
			t.Fatalf("seed=%d: %d leaders with %d candidates", s, leaders, cands)
		}
	}
	if wins == 0 {
		t.Fatal("no successful elections")
	}
	_ = zero // zero-candidate trials are legitimate whp-failures
}

func TestFloodMessageBound(t *testing.T) {
	// Send-on-change flooding: each link carries at most #distinct-IDs
	// messages in each direction.
	g := graph.Complete(24)
	cfg := FloodConfig{N: g.N(), Diam: 1, AllNodes: true}
	factory, err := NewFloodFactory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nw := sim.New(sim.Config{Graph: g, Seed: 4}, factory)
	nw.Run(cfg.Rounds() + 2)
	maxMsgs := int64(2 * g.M() * g.N()) // crude upper bound: n IDs per direction
	if m := nw.Metrics().Messages; m > maxMsgs {
		t.Fatalf("messages %d exceed bound %d", m, maxMsgs)
	}
}

func runWalkNotify(t *testing.T, g *graph.Graph, cfg WalkNotifyConfig, seed uint64) (int, []WalkNotifyOutput, sim.Metrics) {
	t.Helper()
	factory, err := NewWalkNotifyFactory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nw := sim.New(sim.Config{Graph: g, Seed: seed}, factory)
	nw.Run(cfg.Rounds() + 2)
	if !nw.AllHalted() {
		t.Fatal("walknotify did not halt")
	}
	leaders := 0
	outs := make([]WalkNotifyOutput, g.N())
	for v := range outs {
		outs[v] = nw.Machine(v).(*WalkNotifyMachine).Output()
		if outs[v].Leader {
			leaders++
		}
	}
	return leaders, outs, nw.Metrics()
}

func TestWalkNotifyConfigValidation(t *testing.T) {
	if _, err := NewWalkNotifyFactory(WalkNotifyConfig{N: 1, TMix: 3}); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := NewWalkNotifyFactory(WalkNotifyConfig{N: 8, TMix: 0}); err == nil {
		t.Fatal("tmix=0 accepted")
	}
	if r := (WalkNotifyConfig{N: 1}).Rounds(); r != 0 {
		t.Fatal("Rounds on invalid config should be 0")
	}
}

func TestWalkNotifySuccessAcrossFamilies(t *testing.T) {
	cases := []struct {
		name   string
		g      *graph.Graph
		trials int
		min    int
	}{
		{"complete24", graph.Complete(24), 10, 8},
		{"cycle16", graph.Cycle(16), 10, 7},
		{"torus4x4", graph.Torus(4, 4), 10, 7},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prof, err := spectral.ProfileGraph(c.g)
			if err != nil {
				t.Fatal(err)
			}
			cfg := WalkNotifyConfig{N: c.g.N(), TMix: prof.MixingTime}
			wins := 0
			for s := uint64(0); s < uint64(c.trials); s++ {
				leaders, _, _ := runWalkNotify(t, c.g, cfg, 900+s)
				if leaders == 1 {
					wins++
				}
			}
			if wins < c.min {
				t.Fatalf("wins %d/%d below %d", wins, c.trials, c.min)
			}
		})
	}
}

func TestWalkNotifyMaxCandidateNeverEliminated(t *testing.T) {
	g := graph.Complete(24)
	prof, err := spectral.ProfileGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := WalkNotifyConfig{N: g.N(), TMix: prof.MixingTime}
	for s := uint64(0); s < 10; s++ {
		_, outs, _ := runWalkNotify(t, g, cfg, 300+s)
		var maxCand uint64
		for _, o := range outs {
			if o.Candidate && o.ID > maxCand {
				maxCand = o.ID
			}
		}
		for v, o := range outs {
			if o.Candidate && o.ID == maxCand && o.Eliminated {
				t.Fatalf("seed=%d: max candidate %d eliminated", s, v)
			}
		}
	}
}

func TestWalkNotifyLeadersAreNonEliminatedCandidates(t *testing.T) {
	g := graph.Torus(4, 4)
	prof, err := spectral.ProfileGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := WalkNotifyConfig{N: g.N(), TMix: prof.MixingTime}
	for s := uint64(0); s < 5; s++ {
		_, outs, _ := runWalkNotify(t, g, cfg, 70+s)
		for v, o := range outs {
			if o.Leader && (!o.Candidate || o.Eliminated) {
				t.Fatalf("seed=%d: node %d leads while eliminated/non-candidate", s, v)
			}
		}
	}
}

func TestWalkNotifyBetaDefault(t *testing.T) {
	p, err := WalkNotifyConfig{N: 64, TMix: 10}.resolve()
	if err != nil {
		t.Fatal(err)
	}
	// beta = ceil(sqrt(n) * ln(n)^{3/2}) = ceil(8 * 4.159^1.5) ~ 68.
	if p.beta < 50 || p.beta > 90 {
		t.Fatalf("beta %d out of expected band", p.beta)
	}
	p2, _ := WalkNotifyConfig{N: 64, TMix: 10, Beta: 5}.resolve()
	if p2.beta != 5 {
		t.Fatal("beta override ignored")
	}
}

func TestWalkNotifyDeterministic(t *testing.T) {
	g := graph.Complete(16)
	cfg := WalkNotifyConfig{N: 16, TMix: 4}
	l1, o1, m1 := runWalkNotify(t, g, cfg, 5)
	l2, o2, m2 := runWalkNotify(t, g, cfg, 5)
	if l1 != l2 || m1 != m2 {
		t.Fatal("runs diverged")
	}
	for v := range o1 {
		if o1[v] != o2[v] {
			t.Fatalf("node %d output differs", v)
		}
	}
}

func TestPayloadBits(t *testing.T) {
	if (wnTokenMsg{orig: 1023, count: 7}).Bits() != 10+3 {
		t.Fatalf("token bits %d", (wnTokenMsg{orig: 1023, count: 7}).Bits())
	}
	if (wnKillMsg{orig: 1023}).Bits() != 11 {
		t.Fatalf("kill bits %d", (wnKillMsg{orig: 1023}).Bits())
	}
	if (floodMsg{id: 255}).Bits() != 8 {
		t.Fatalf("flood bits %d", (floodMsg{id: 255}).Bits())
	}
}

func TestWalkNotifyTokenConservationDuringWalkPhase(t *testing.T) {
	// Until kills start, the number of live tokens of the maximum
	// candidate is conserved (its tokens are never absorbed). Verify the
	// winner's parked tokens never exceed beta in total.
	g := graph.Complete(12)
	cfg := WalkNotifyConfig{N: 12, TMix: 3, Beta: 9}
	factory, err := NewWalkNotifyFactory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nw := sim.New(sim.Config{Graph: g, Seed: 8}, factory)
	p, _ := cfg.resolve()
	var maxCand uint64
	for v := 0; v < g.N(); v++ {
		o := nw.Machine(v).(*WalkNotifyMachine).out
		if o.Candidate && o.ID > maxCand {
			maxCand = o.ID
		}
	}
	if maxCand == 0 {
		t.Skip("no candidate in this seed")
	}
	for step := 0; step < p.total+2; step++ {
		if !nw.Step() {
			break
		}
		total := 0
		for v := 0; v < g.N(); v++ {
			for _, tok := range nw.Machine(v).(*WalkNotifyMachine).parked {
				if tok.orig == maxCand {
					total += tok.count
				}
			}
		}
		if total > p.beta {
			t.Fatalf("round %d: %d parked tokens of max candidate exceed beta %d", step, total, p.beta)
		}
	}
}

// inboxCheckedWN asserts on every inbox that each port carries token
// messages in strictly ascending origin order with positive counts, which
// is what ascending departure rows produce once the simulator stable-sorts
// the inbox by (port, channel).
type inboxCheckedWN struct {
	*WalkNotifyMachine
	t *testing.T
}

func (w inboxCheckedWN) Step(ctx *sim.Context, inbox []sim.Packet) {
	last := map[int]uint64{}
	for _, pkt := range inbox {
		msg, ok := pkt.Payload.(wnTokenMsg)
		if !ok {
			continue
		}
		if prev, seen := last[pkt.Port]; seen && prev >= msg.orig {
			w.t.Errorf("round %d port %d: token origin %d after %d", ctx.Round(), pkt.Port, msg.orig, prev)
		}
		if msg.count <= 0 {
			w.t.Errorf("round %d port %d: token count %d", ctx.Round(), pkt.Port, msg.count)
		}
		last[pkt.Port] = msg.orig
	}
	w.WalkNotifyMachine.Step(ctx, inbox)
}

// TestWalkNotifyStateOrderInvariants checks, after every round of a run
// under both schedulers, that each node's parked tokens are strictly
// ascending by origin with positive counts and all of the node's mark
// (smaller ones die when the mark rises), and that no departure row or
// count survives the round.
func TestWalkNotifyStateOrderInvariants(t *testing.T) {
	g := graph.Torus(6, 6)
	cfg := WalkNotifyConfig{N: g.N(), TMix: 6, C: 4}
	factory, err := NewWalkNotifyFactory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checked := func(node, degree int, r *rng.RNG) sim.Machine {
		return inboxCheckedWN{factory(node, degree, r).(*WalkNotifyMachine), t}
	}
	var outs [2][]WalkNotifyOutput
	for i, sched := range []sim.Scheduler{sim.Sequential, sim.WorkerPool} {
		nw := sim.New(sim.Config{Graph: g, Seed: 4, Scheduler: sched, Workers: 2}, checked)
		parkedSeen := false
		for round := 0; nw.Step(); round++ {
			for v := 0; v < g.N(); v++ {
				m := nw.Machine(v).(inboxCheckedWN).WalkNotifyMachine
				for j, tok := range m.parked {
					if tok.count <= 0 || tok.orig != m.maxMark || (j > 0 && m.parked[j-1].orig >= tok.orig) {
						t.Fatalf("sched %d round %d node %d: parked %v (mark %d)", sched, round, v, m.parked, m.maxMark)
					}
					parkedSeen = true
				}
				if len(m.departs) != 0 {
					t.Fatalf("sched %d round %d node %d: %d departure rows left", sched, round, v, len(m.departs))
				}
				for j, c := range m.counts {
					if c != 0 {
						t.Fatalf("sched %d round %d node %d: departure count %d left at %d", sched, round, v, c, j)
					}
				}
			}
		}
		if !parkedSeen {
			t.Fatalf("sched %d: no node parked a token; the check ran on nothing", sched)
		}
		for v := 0; v < g.N(); v++ {
			outs[i] = append(outs[i], nw.Machine(v).(inboxCheckedWN).Output())
		}
	}
	for v := range outs[0] {
		if outs[0][v] != outs[1][v] {
			t.Fatalf("node %d differs across schedulers", v)
		}
	}
}

// TestWalkNotifyDepartRowsAscending drives departRow directly with origins
// out of order: rows come back ascending and unique, and a second round
// reuses the first round's buffer without allocating.
func TestWalkNotifyDepartRowsAscending(t *testing.T) {
	m := &WalkNotifyMachine{}
	round := func() {
		for _, orig := range []uint64{5, 2, 9, 2, 7} {
			m.departRow(orig, 3)[int(orig)%3]++
		}
	}
	round()
	if fmt.Sprint(m.departs) != "[2 5 7 9]" {
		t.Fatalf("departure rows %v, want [2 5 7 9]", m.departs)
	}
	// Each origin o counted once on port o%3, origin 2 twice.
	if fmt.Sprint(m.counts) != "[0 0 2 0 0 1 0 1 0 1 0 0]" {
		t.Fatalf("departure counts %v", m.counts)
	}
	if len(m.counts) != 4*3 {
		t.Fatalf("%d counts for 4 rows of 3 ports", len(m.counts))
	}
	reset := func() {
		clear(m.counts)
		m.departs = m.departs[:0]
	}
	reset()
	if avg := testing.AllocsPerRun(20, func() { round(); reset() }); avg != 0 {
		t.Fatalf("a warmed round allocates %.1f objects, want 0", avg)
	}
}
