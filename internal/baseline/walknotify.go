package baseline

import (
	"fmt"
	"math"
	"slices"

	"anonlead/internal/congest"
	"anonlead/internal/rng"
	"anonlead/internal/sim"
)

// WalkNotifyConfig parameterizes the Gilbert-class baseline.
type WalkNotifyConfig struct {
	// N is the known network size. Required.
	N int
	// TMix is the lazy-walk mixing time (or an upper bound). Required.
	TMix int
	// C scales candidate rate and walk length. Zero selects 2.
	C float64
	// Beta overrides the tokens per candidate. Zero selects the
	// Θ(√n·log^{3/2} n) value that reproduces the O(tmix·√n·polylog n)
	// message bound of Gilbert et al.
	Beta int
}

func (cfg WalkNotifyConfig) resolve() (wnParams, error) {
	var p wnParams
	if cfg.N < 2 {
		return p, fmt.Errorf("baseline: WalkNotifyConfig.N must be >= 2, got %d", cfg.N)
	}
	if cfg.TMix < 1 {
		return p, fmt.Errorf("baseline: WalkNotifyConfig.TMix must be >= 1, got %d", cfg.TMix)
	}
	p.n = cfg.N
	c := cfg.C
	if c <= 0 {
		c = 2
	}
	ln := math.Log(float64(p.n))
	if ln < 1 {
		ln = 1
	}
	p.candProb = c * ln / float64(p.n)
	if p.candProb > 1 {
		p.candProb = 1
	}
	p.beta = cfg.Beta
	if p.beta <= 0 {
		p.beta = int(math.Ceil(math.Sqrt(float64(p.n)) * math.Pow(ln, 1.5)))
	}
	if p.beta < 1 {
		p.beta = 1
	}
	p.walkLen = int(math.Ceil(c * float64(cfg.TMix) * ln))
	if p.walkLen < 4 {
		p.walkLen = 4
	}
	p.total = 2*p.walkLen + 3 // walk phase + kill drain + decide
	nn := uint64(p.n)
	p.maxID = nn * nn * nn * nn
	return p, nil
}

type wnParams struct {
	n        int
	candProb float64
	beta     int
	walkLen  int
	total    int
	maxID    uint64
}

// wnTokenMsg moves count walk tokens of one candidate across a link.
type wnTokenMsg struct {
	orig  uint64
	count int
}

// Bits returns the CONGEST size (origin ID + multiplicity).
func (m wnTokenMsg) Bits() int {
	return congest.BitLen(m.orig) + congest.BitLen(uint64(m.count))
}

// wnKillMsg climbs the breadcrumb forest of candidate orig toward its
// origin, eliminating it.
type wnKillMsg struct{ orig uint64 }

// Bits returns the CONGEST size (origin ID + 1 tag bit).
func (m wnKillMsg) Bits() int { return 1 + congest.BitLen(m.orig) }

// WalkNotifyOutput is a node's result after the protocol halts.
type WalkNotifyOutput struct {
	Candidate  bool
	ID         uint64
	Eliminated bool
	MaxMark    uint64
	Leader     bool
}

// WalkNotifyMachine implements the Gilbert-class baseline: candidates spray
// beta lazy-walk tokens carrying their ID; nodes keep the largest marking
// ID and a reverse pointer (first-arrival port) per candidate; a token
// landing on (or parked at) a node marked by a larger ID dies and a kill
// notice retraces the reverse pointers to eliminate its candidate.
type WalkNotifyMachine struct {
	p   wnParams
	r   *rng.RNG
	out WalkNotifyOutput

	maxMark   uint64
	revPort   map[uint64]int
	parked    []wnTokens // tokens held here, ascending by origin
	departs   []uint64   // this round's departing origins, ascending
	counts    []int      // deg departure counts per origin; zero between rounds
	killSent  map[uint64]bool
	killQueue []uint64 // kills to emit this round (sorted, deduped)
	sprayed   bool
	halted    bool
}

// wnTokens is count walk tokens of candidate orig.
type wnTokens struct {
	orig  uint64
	count int
}

// NewWalkNotifyFactory returns a sim.Factory for the baseline.
func NewWalkNotifyFactory(cfg WalkNotifyConfig) (sim.Factory, error) {
	p, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	var arena sim.Arena[WalkNotifyMachine]
	return func(node, degree int, r *rng.RNG) sim.Machine {
		m := arena.New()
		m.p, m.r = p, r
		m.revPort = make(map[uint64]int)
		m.killSent = make(map[uint64]bool)
		return m
	}, nil
}

// Rounds returns the total protocol length in rounds.
func (cfg WalkNotifyConfig) Rounds() int {
	p, err := cfg.resolve()
	if err != nil {
		return 0
	}
	return p.total + 1
}

// Output returns the node's result; valid after halting.
func (m *WalkNotifyMachine) Output() WalkNotifyOutput { return m.out }

// Init implements sim.Machine.
func (m *WalkNotifyMachine) Init(ctx *sim.Context) {
	m.out.ID = 1 + m.r.Uint64n(m.p.maxID)
	m.out.Candidate = m.r.Bernoulli(m.p.candProb)
	if m.out.Candidate {
		m.maxMark = m.out.ID
	}
}

// Step implements sim.Machine.
func (m *WalkNotifyMachine) Step(ctx *sim.Context, inbox []sim.Packet) {
	if m.halted {
		return
	}
	round := ctx.Round()
	for _, pkt := range inbox {
		switch msg := pkt.Payload.(type) {
		case wnTokenMsg:
			m.receiveTokens(pkt.Port, msg)
		case wnKillMsg:
			m.receiveKill(msg.orig)
		}
	}

	if round < m.p.walkLen {
		m.moveTokens(ctx)
	}
	m.emitKills(ctx)

	if round >= m.p.total {
		m.out.MaxMark = m.maxMark
		m.out.Leader = m.out.Candidate && !m.out.Eliminated && m.maxMark == m.out.ID
		m.halted = true
		ctx.Halt()
	}
}

// receiveTokens parks arriving tokens, maintains breadcrumbs and marks,
// and schedules kills for tokens that met a larger mark (either way
// around).
func (m *WalkNotifyMachine) receiveTokens(port int, msg wnTokenMsg) {
	c := msg.orig
	if _, seen := m.revPort[c]; !seen && !(m.out.Candidate && c == m.out.ID) {
		m.revPort[c] = port
	}
	switch {
	case c < m.maxMark:
		m.scheduleKill(c) // arriving tokens die on a larger mark
		return
	case c > m.maxMark:
		m.maxMark = c
		// Parked tokens of smaller candidates die under the new mark:
		// all of them, since every parked origin is at most the old mark.
		for _, t := range m.parked {
			m.scheduleKill(t.orig)
		}
		m.parked = m.parked[:0]
		// A smaller candidate origin is eliminated on the spot.
		if m.out.Candidate && m.out.ID < c {
			m.out.Eliminated = true
		}
	}
	// c is the mark, so it is the largest parked origin or a new one.
	if last := len(m.parked) - 1; last >= 0 && m.parked[last].orig == c {
		m.parked[last].count += msg.count
	} else {
		m.parked = append(m.parked, wnTokens{orig: c, count: msg.count})
	}
}

// receiveKill forwards a kill along the breadcrumb or absorbs it at the
// origin.
func (m *WalkNotifyMachine) receiveKill(orig uint64) {
	if m.out.Candidate && orig == m.out.ID {
		m.out.Eliminated = true
		return
	}
	m.scheduleKill(orig)
}

// scheduleKill queues a kill notice for candidate orig (once per node).
func (m *WalkNotifyMachine) scheduleKill(orig uint64) {
	if m.killSent[orig] {
		return
	}
	if m.out.Candidate && orig == m.out.ID {
		m.out.Eliminated = true
		return
	}
	m.killSent[orig] = true
	m.killQueue = append(m.killQueue, orig)
}

// emitKills sends queued kill notices toward the origins.
func (m *WalkNotifyMachine) emitKills(ctx *sim.Context) {
	if len(m.killQueue) == 0 {
		return
	}
	slices.Sort(m.killQueue)
	for _, orig := range m.killQueue {
		if p, ok := m.revPort[orig]; ok {
			ctx.Send(p, 0, wnKillMsg{orig: orig})
		}
	}
	m.killQueue = m.killQueue[:0]
}

// moveTokens sprays the initial tokens (first walk round) and advances the
// lazy walks: each parked token stays with probability 1/2 or departs on a
// uniform port, batched per (port, candidate).
func (m *WalkNotifyMachine) moveTokens(ctx *sim.Context) {
	deg := ctx.Degree()
	if deg == 0 {
		return
	}
	if !m.sprayed {
		m.sprayed = true
		if m.out.Candidate {
			row := m.departRow(m.out.ID, deg)
			for i := 0; i < m.p.beta; i++ {
				row[m.r.Intn(deg)]++
			}
		}
	}
	stay := m.parked[:0]
	for _, t := range m.parked {
		row := m.departRow(t.orig, deg)
		kept := 0
		for i := 0; i < t.count; i++ {
			if m.r.Coin() {
				kept++
				continue
			}
			row[m.r.Intn(deg)]++
		}
		if kept > 0 {
			stay = append(stay, wnTokens{orig: t.orig, count: kept})
		}
	}
	m.parked = stay
	for j, orig := range m.departs {
		row := m.counts[j*deg : (j+1)*deg]
		for p, c := range row {
			if c > 0 {
				ctx.Send(p, 0, wnTokenMsg{orig: orig, count: c})
				row[p] = 0
			}
		}
	}
	m.departs = m.departs[:0]
}

// departRow returns this round's departure counts of orig, valid until the
// next call, inserting a zeroed row at its ascending position if needed.
func (m *WalkNotifyMachine) departRow(orig uint64, deg int) []int {
	i, ok := slices.BinarySearch(m.departs, orig)
	if !ok {
		n := len(m.departs) * deg
		if n == len(m.counts) {
			m.counts = append(m.counts, make([]int, deg)...)
		}
		copy(m.counts[(i+1)*deg:], m.counts[i*deg:n])
		clear(m.counts[i*deg : (i+1)*deg])
		m.departs = slices.Insert(m.departs, i, orig)
	}
	return m.counts[i*deg : (i+1)*deg]
}
