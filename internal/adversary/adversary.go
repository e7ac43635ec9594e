// Package adversary provides deterministic, seed-derived fault injection
// for the CONGEST simulator: composable perturbation layers interposed
// between send and delivery via sim.Config.Adversary.
//
// The paper's guarantees (w.h.p. success, O(τ_mix)-time election) are
// stated for fault-free static synchronous networks. Related work ties
// election difficulty directly to environment structure and knowledge
// (Dieudonné–Pelc; Chatterjee–Pandurangan–Robinson), so this package exists
// to chart where the guarantees break: controlled perturbations produce
// degradation curves instead of a single fault-free point.
//
// Every decision an adversary makes is a pure function of its seed and the
// decision's coordinates (round, edge, node) — never of call order or
// scheduler interleaving — derived through rng.DeriveSeed splitting. Runs
// are therefore byte-identical across the Sequential and WorkerPool
// schedulers, and a fault sweep is exactly as reproducible as the
// fault-free sweeps it extends.
//
// Four primitives are provided, each implementing sim.Adversary, plus
// Compose to stack them:
//
//   - Loss: per-packet Bernoulli drop (independent per round × link).
//   - Crash: crash-stop node failures, from a fixed schedule or sampled
//     (fraction of nodes, uniform crash round).
//   - Churn: per-round undirected edge masking — a down edge drops both
//     directions that round; optionally a BFS spanning tree is kept up so
//     the live graph stays connected.
//   - Delay: bounded delivery jitter — a delayed packet arrives 1..Max
//     rounds late.
//
// The declarative Spec (spec.go) bundles the primitives, names the
// configuration canonically for artifact cell keys, and builds the
// composed adversary for one trial.
package adversary

import (
	"anonlead/internal/graph"
	"anonlead/internal/rng"
	"anonlead/internal/sim"
)

// decision returns the RNG of one adversarial decision: a pure function of
// seed and the labels, independent of every other decision's stream.
func decision(seed uint64, labels ...uint64) *rng.RNG {
	r := rng.New(seed)
	for _, l := range labels {
		r = rng.New(r.DeriveSeed(l))
	}
	return r
}

// decision2 and decision3 are allocation-free variants of decision for the
// fixed label counts used on the per-packet hot path: a value RNG reseeded
// in place walks the identical derivation chain (Reseed(seed) produces
// exactly New(seed)'s stream), so fates stay byte-identical to the
// heap-chained form while the routing path stays at 0 allocs/round.
func decision2(seed, a, b uint64) rng.RNG {
	var r rng.RNG
	r.Reseed(seed)
	r.Reseed(r.DeriveSeed(a))
	r.Reseed(r.DeriveSeed(b))
	return r
}

func decision3(seed, a, b, c uint64) rng.RNG {
	r := decision2(seed, a, b)
	r.Reseed(r.DeriveSeed(c))
	return r
}

// edgeKey canonicalizes a directed (from, to) pair to its undirected edge
// label, so both directions of a link share one decision stream.
func edgeKey(from, to int) uint64 {
	lo, hi := from, to
	if lo > hi {
		lo, hi = hi, lo
	}
	return uint64(lo)<<32 | uint64(hi)
}

// dirKey labels a directed (from, port) pair; with round it uniquely names
// one packet slot (multi-packet sends on one port in one round share a
// stream, drawn in deterministic send order — see Fate implementations).
func dirKey(from, port int) uint64 {
	return uint64(from)<<20 | uint64(port)
}

// slotSeq numbers the packets of one (round, sender, port) slot in send
// order, so each packet of a multi-packet send gets its own decision
// stream. The counter resets when the round advances; within a round,
// occurrence indices are deterministic because routing consumes sends in
// a fixed order — and slots queried in any order still agree, because the
// index depends only on how many packets that slot has routed so far.
type slotSeq struct {
	round  int
	counts map[uint64]int
}

// next returns the occurrence index of the slot's next packet.
func (s *slotSeq) next(round int, key uint64) uint64 {
	if s.counts == nil {
		s.counts = make(map[uint64]int)
		s.round = round
	} else if s.round != round {
		clear(s.counts)
		s.round = round
	}
	k := s.counts[key]
	s.counts[key] = k + 1
	return uint64(k)
}

// Loss drops each packet independently with probability P, the classic
// per-link Bernoulli message-loss adversary. Every packet — including the
// k-th of a multi-packet send on one port in one round — draws from its
// own (round, sender, port, k) decision stream, so fates never correlate.
type Loss struct {
	P    float64
	seed uint64
	seq  slotSeq
}

// NewLoss returns a Bernoulli loss adversary with drop probability p.
func NewLoss(p float64, seed uint64) *Loss {
	return &Loss{P: p, seed: seed}
}

// CrashRound implements sim.Adversary (Loss never crashes nodes).
func (l *Loss) CrashRound(int) int { return -1 }

// MaxDelay implements sim.Adversary (Loss never delays).
func (l *Loss) MaxDelay() int { return 0 }

// Fate implements sim.Adversary.
func (l *Loss) Fate(round, from, port, _ int) (bool, int) {
	key := dirKey(from, port)
	k := l.seq.next(round, key)
	r := decision3(l.seed, uint64(int64(round)), key, k)
	return r.Bernoulli(l.P), 0
}

// Crash crash-stops nodes according to a per-node schedule.
type Crash struct {
	rounds []int // per node; -1 = never
}

// NewCrashSchedule builds a fixed-schedule crash adversary for an n-node
// network: schedule maps node index to crash round. Unlisted nodes never
// crash.
func NewCrashSchedule(n int, schedule map[int]int) *Crash {
	c := &Crash{rounds: make([]int, n)}
	for v := range c.rounds {
		c.rounds[v] = -1
	}
	for v, r := range schedule {
		if v >= 0 && v < n && r >= 0 {
			c.rounds[v] = r
		}
	}
	return c
}

// NewRandomCrash samples a crash schedule: each node independently crashes
// with probability fraction, at a round drawn uniformly from [0, by]. The
// schedule is fixed at construction (a pure function of seed), matching
// the oblivious-adversary model.
func NewRandomCrash(n int, fraction float64, by int, seed uint64) *Crash {
	if by < 0 {
		by = 0
	}
	c := &Crash{rounds: make([]int, n)}
	for v := 0; v < n; v++ {
		r := decision(seed, uint64(v))
		if r.Bernoulli(fraction) {
			c.rounds[v] = r.Intn(by + 1)
		} else {
			c.rounds[v] = -1
		}
	}
	return c
}

// CrashRound implements sim.Adversary.
func (c *Crash) CrashRound(v int) int {
	if v < 0 || v >= len(c.rounds) {
		return -1
	}
	return c.rounds[v]
}

// MaxDelay implements sim.Adversary.
func (c *Crash) MaxDelay() int { return 0 }

// Fate implements sim.Adversary (crashes never touch in-flight packets;
// the simulator drops traffic to crashed nodes itself).
func (c *Crash) Fate(int, int, int, int) (bool, int) { return false, 0 }

// Churn masks undirected edges per round: an edge that is down in round r
// drops every packet sent on it in r, in both directions — dynamic-network
// edge failure rather than independent per-packet loss.
type Churn struct {
	// P is the per-edge per-round down probability.
	P    float64
	seed uint64
	// protected marks edges (by edgeKey) that are never masked — the BFS
	// spanning tree when connectivity preservation is requested.
	protected map[uint64]bool
	// down memoizes the round's per-edge decisions: both directions,
	// every channel, and every packet of a churning link re-ask the same
	// (round, edge) question, so recomputing the derived stream per
	// packet would put thousands of redundant RNG constructions on the
	// routing path. Calls come from the single-threaded router only.
	downRound int
	down      map[uint64]bool
}

// NewChurn returns a churn adversary masking each undirected edge of g
// independently with probability p each round. With preserveConnectivity,
// the edges of a BFS spanning tree (rooted at node 0) are never masked, so
// the live graph stays connected every round; without it, partitions are
// deliberately possible.
func NewChurn(g *graph.Graph, p float64, preserveConnectivity bool, seed uint64) *Churn {
	c := &Churn{P: p, seed: seed}
	if preserveConnectivity && g != nil && g.N() > 0 {
		c.protected = spanningTree(g)
	}
	return c
}

// spanningTree returns the edgeKey set of a BFS tree of g rooted at 0.
func spanningTree(g *graph.Graph) map[uint64]bool {
	n := g.N()
	tree := make(map[uint64]bool, n-1)
	visited := make([]bool, n)
	queue := []int{0}
	visited[0] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for p := 0; p < g.Degree(v); p++ {
			w := g.Neighbor(v, p)
			if !visited[w] {
				visited[w] = true
				tree[edgeKey(v, w)] = true
				queue = append(queue, w)
			}
		}
	}
	return tree
}

// CrashRound implements sim.Adversary.
func (c *Churn) CrashRound(int) int { return -1 }

// MaxDelay implements sim.Adversary.
func (c *Churn) MaxDelay() int { return 0 }

// Fate implements sim.Adversary: both directions of an edge share the
// (round, undirected edge) decision, so a down edge silences the link
// symmetrically.
func (c *Churn) Fate(round, from, _, to int) (bool, int) {
	key := edgeKey(from, to)
	if c.protected != nil && c.protected[key] {
		return false, 0
	}
	if c.down == nil {
		c.down = make(map[uint64]bool)
		c.downRound = round
	} else if c.downRound != round {
		clear(c.down)
		c.downRound = round
	}
	d, ok := c.down[key]
	if !ok {
		r := decision2(c.seed, uint64(int64(round)), key)
		d = r.Bernoulli(c.P)
		c.down[key] = d
	}
	return d, 0
}

// Delay jitters delivery: each packet is independently late with
// probability P, arriving 1..Max rounds after its normal delivery round.
// Order across packets of one link is not preserved — late packets merge
// after on-time ones — which is exactly the asynchrony protocols built for
// the synchronous model are not promised to survive. Like Loss, each
// packet of a (round, sender, port) slot draws from its own stream.
type Delay struct {
	// P is the probability a packet is delayed at all.
	P float64
	// Max bounds the extra rounds (delayed packets draw uniform [1, Max]).
	Max  int
	seed uint64
	seq  slotSeq
}

// NewDelay returns a delivery-jitter adversary.
func NewDelay(p float64, max int, seed uint64) *Delay {
	if max < 0 {
		max = 0
	}
	return &Delay{P: p, Max: max, seed: seed}
}

// CrashRound implements sim.Adversary.
func (d *Delay) CrashRound(int) int { return -1 }

// MaxDelay implements sim.Adversary.
func (d *Delay) MaxDelay() int { return d.Max }

// Fate implements sim.Adversary.
func (d *Delay) Fate(round, from, port, _ int) (bool, int) {
	if d.Max == 0 {
		return false, 0
	}
	key := dirKey(from, port)
	k := d.seq.next(round, key)
	r := decision3(d.seed, uint64(int64(round)), key, k)
	if !r.Bernoulli(d.P) {
		return false, 0
	}
	return false, 1 + r.Intn(d.Max)
}

// composite stacks adversaries: a packet is dropped if any layer drops it,
// delays add, and a node crashes at the earliest scheduled layer.
type composite struct {
	parts    []sim.Adversary
	maxDelay int
}

// Compose stacks several adversaries into one. Nil parts are skipped; an
// empty composition returns nil (no adversary). If any part is
// traffic-adaptive (sim.TrafficAdaptive), the composition is too:
// observations fan out to every adaptive layer and their victim lists
// concatenate in layer order.
func Compose(parts ...sim.Adversary) sim.Adversary {
	kept := make([]sim.Adversary, 0, len(parts))
	var adaptive []sim.TrafficAdaptive
	maxDelay := 0
	for _, p := range parts {
		if p == nil {
			continue
		}
		kept = append(kept, p)
		maxDelay += p.MaxDelay() // delays add, so bounds add
		if ta, ok := p.(sim.TrafficAdaptive); ok {
			adaptive = append(adaptive, ta)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	base := composite{parts: kept, maxDelay: maxDelay}
	if len(adaptive) > 0 {
		return &adaptiveComposite{composite: base, adaptive: adaptive}
	}
	return &base
}

// CrashRound implements sim.Adversary (earliest layer wins).
func (c *composite) CrashRound(v int) int {
	at := -1
	for _, p := range c.parts {
		if r := p.CrashRound(v); r >= 0 && (at < 0 || r < at) {
			at = r
		}
	}
	return at
}

// MaxDelay implements sim.Adversary.
func (c *composite) MaxDelay() int { return c.maxDelay }

// Fate implements sim.Adversary. Every layer is consulted even after a
// drop decision, so each layer's decision streams advance identically no
// matter what the layers above it did — composition never perturbs a
// layer's randomness.
func (c *composite) Fate(round, from, port, to int) (bool, int) {
	drop, delay := false, 0
	for _, p := range c.parts {
		d, dl := p.Fate(round, from, port, to)
		drop = drop || d
		delay += dl
	}
	return drop, delay
}
