package sim

import (
	"testing"
	"testing/quick"

	"anonlead/internal/graph"
	"anonlead/internal/rng"
	"anonlead/internal/trace"
)

// scatter sends one uniquely tagged payload on a random port each round
// and records everything received, letting the property test reconstruct
// ground truth delivery.
type scatter struct {
	node     int
	sent     [][3]int // (round, port, tag)
	received [][3]int // (round, port, tag)
	rounds   int
}

func (m *scatter) Init(ctx *Context) {}

func (m *scatter) Step(ctx *Context, inbox []Packet) {
	for _, pkt := range inbox {
		m.received = append(m.received, [3]int{ctx.Round(), pkt.Port, pkt.Payload.(testMsg).v})
	}
	if ctx.Round() >= m.rounds {
		ctx.Halt()
		return
	}
	port := ctx.RNG().Intn(ctx.Degree())
	tag := m.node<<16 | ctx.Round()
	ctx.Send(port, 0, testMsg{v: tag, bits: 24})
	m.sent = append(m.sent, [3]int{ctx.Round(), port, tag})
}

// TestRoutingProperty checks, over random connected graphs, that every
// sent packet is delivered exactly once, to the correct neighbor, on the
// correct reverse port, in the next round.
func TestRoutingProperty(t *testing.T) {
	root := rng.New(42)
	if err := quick.Check(func(seed uint64) bool {
		r := root.Split(seed)
		g, err := graph.GNPConnected(12, 0.4, r)
		if err != nil {
			return true
		}
		nw := New(Config{Graph: g, Seed: seed}, func(node, degree int, rr *rng.RNG) Machine {
			return &scatter{node: node, rounds: 6}
		})
		nw.Run(10)

		// Ground truth: for each send (round t, node v, port p, tag),
		// expect exactly one reception at neighbor w = g.Neighbor(v,p),
		// round t+1, port = g.PortTo(w, v).
		type delivery struct{ round, node, port, tag int }
		expected := make(map[delivery]int)
		for v := 0; v < g.N(); v++ {
			m := nw.Machine(v).(*scatter)
			for _, s := range m.sent {
				w := g.Neighbor(v, s[1])
				expected[delivery{s[0] + 1, w, g.PortTo(w, v), s[2]}]++
			}
		}
		got := make(map[delivery]int)
		for v := 0; v < g.N(); v++ {
			m := nw.Machine(v).(*scatter)
			for _, rec := range m.received {
				got[delivery{rec[0], v, rec[1], rec[2]}]++
			}
		}
		if len(expected) != len(got) {
			return false
		}
		for k, n := range expected {
			if got[k] != n {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// tracer emits one event per round.
type tracer struct{}

func (m *tracer) Init(ctx *Context) { ctx.Trace("init", "") }
func (m *tracer) Step(ctx *Context, inbox []Packet) {
	ctx.Trace("step", "")
	if ctx.Round() >= 2 {
		ctx.Halt()
	}
}

func TestContextTraceRecording(t *testing.T) {
	g := graph.Cycle(4)
	rec := trace.NewRing(64)
	nw := New(Config{Graph: g, Seed: 1, Trace: rec},
		func(node, degree int, r *rng.RNG) Machine { return &tracer{} })
	nw.Run(10)
	if rec.Count("init") != 4 {
		t.Fatalf("init events %d want 4", rec.Count("init"))
	}
	if rec.Count("step") != 12 { // rounds 0,1,2 for 4 nodes
		t.Fatalf("step events %d want 12", rec.Count("step"))
	}
	// Init events carry round -1.
	for _, e := range rec.Filter("init") {
		if e.Round != -1 {
			t.Fatalf("init event round %d", e.Round)
		}
	}
}

func TestContextTraceDisabledIsNoop(t *testing.T) {
	g := graph.Cycle(4)
	nw := New(Config{Graph: g, Seed: 1},
		func(node, degree int, r *rng.RNG) Machine { return &tracer{} })
	nw.Run(10) // must not panic with nil recorder
}

func TestContextTraceConcurrentSchedulers(t *testing.T) {
	g := graph.Torus(4, 4)
	for _, s := range []Scheduler{WorkerPool} {
		rec := trace.NewCounting()
		nw := New(Config{Graph: g, Seed: 1, Scheduler: s, Trace: rec},
			func(node, degree int, r *rng.RNG) Machine { return &tracer{} })
		nw.Run(10)
		if rec.Count("init") != int64(g.N()) {
			t.Fatalf("scheduler %v: init events %d", s, rec.Count("init"))
		}
	}
}
