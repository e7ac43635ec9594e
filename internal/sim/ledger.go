package sim

import "anonlead/internal/congest"

// LinkMeter meters one sender's out-links for one round: the (port,
// channel, bits) of every send, merged per (port, channel), and charged
// as Σ over the port's channels of ⌈bits/budget⌉ slots (distinct channels
// never share a slot). Each sender owns its out-links, so the maximum of
// the per-sender charges over all nodes is the maximum over directed
// edges that the CONGEST time of §2 needs.
//
// A meter is sized to a degree and reused: per-port chain heads are
// gated by a round epoch, so starting the next sender costs no clearing.
// Once its load buffer has warmed up, metering allocates nothing.
type LinkMeter struct {
	budget int
	epoch  uint64
	heads  []portHead // indexed by port
	loads  []chanLoad
}

// portHead is a port's first load of the metered round; valid only while
// epoch equals the meter's.
type portHead struct {
	epoch uint64
	first int32
}

// chanLoad is one (port, channel) bit load. Loads of the same port are
// chained through next (-1 terminates).
type chanLoad struct {
	channel uint32
	port    int32
	next    int32
	bits    int
}

// NewLinkMeter returns a meter for senders of up to degree ports, charging
// budget bits per slot.
func NewLinkMeter(degree, budget int) LinkMeter {
	return LinkMeter{budget: budget, epoch: 1, heads: make([]portHead, degree)}
}

// Add records bits sent on (port, channel). The first load of a port
// claims a fresh chain head; further channels extend the chain. Channel
// counts per link per round are small, so the walk beats hashing.
func (m *LinkMeter) Add(port int, channel uint32, bits int) {
	h := &m.heads[port]
	if h.epoch != m.epoch {
		h.epoch = m.epoch
		h.first = int32(len(m.loads))
		m.loads = append(m.loads, chanLoad{channel: channel, port: int32(port), next: -1, bits: bits})
		return
	}
	idx := h.first
	for {
		ld := &m.loads[idx]
		if ld.channel == channel {
			ld.bits += bits
			return
		}
		if ld.next < 0 {
			ld.next = int32(len(m.loads))
			m.loads = append(m.loads, chanLoad{channel: channel, port: int32(port), next: -1, bits: bits})
			return
		}
		idx = ld.next
	}
}

// Charge returns the sender's maximum over its out-links of the slot
// charge and of the distinct channel count, then clears the meter for the
// next sender. A sender that sent nothing charges (0, 0).
func (m *LinkMeter) Charge() (maxSlots, maxChannels int) {
	for i := range m.loads {
		if m.heads[m.loads[i].port].first != int32(i) {
			continue // not a chain head: counted with its port's first load
		}
		slots, channels := 0, 0
		for j := int32(i); j >= 0; j = m.loads[j].next {
			slots += congest.Fragments(m.loads[j].bits, m.budget)
			channels++
		}
		maxSlots = max(maxSlots, slots)
		maxChannels = max(maxChannels, channels)
	}
	m.loads = m.loads[:0]
	m.epoch++
	return maxSlots, maxChannels
}

// Ledger owns the round rules every execution backend shares: the halt
// latch, the in-flight count behind the stop rule, the per-round maxima
// of the senders' LinkMeter charges, the counted-round rule, and the
// accumulated Metrics. The simulator's router folds into it directly; the
// transport coordinators fold their nodes' round reports into it.
//
// Folds must run in ascending sender order within a round: a sender's
// packets are in flight unless their receiver has halted, and a receiver
// w latches its halt of the round only when w itself is folded.
type Ledger struct {
	halted   []bool
	inflight int // packets in flight after the last finished round
	pending  int // in-flight count of the open round
	slots    int // the open round's maxima over senders
	channels int
	metrics  Metrics
}

// NewLedger returns the ledger of an n-node run. congestBits <= 0 selects
// DefaultCongestBits(n).
func NewLedger(n, congestBits int) *Ledger {
	if congestBits <= 0 {
		congestBits = DefaultCongestBits(n)
	}
	return &Ledger{halted: make([]bool, n), metrics: Metrics{CongestBits: congestBits}}
}

// Halt latches node v's halt: once halted, halted for good.
func (l *Ledger) Halt(v int) { l.halted[v] = true }

// Halted reports whether node v has halted.
func (l *Ledger) Halted(v int) bool { return l.halted[v] }

// AllHalted reports whether every node has halted.
func (l *Ledger) AllHalted() bool {
	for _, h := range l.halted {
		if !h {
			return false
		}
	}
	return true
}

// HaltedCount returns the number of halted nodes.
func (l *Ledger) HaltedCount() int {
	count := 0
	for _, h := range l.halted {
		if h {
			count++
		}
	}
	return count
}

// Done is the stop rule: every node has halted and nothing is in flight.
// It counts a final drain round when the last halters' sends target
// already-halted peers, exactly as every backend must.
func (l *Ledger) Done() bool { return l.inflight == 0 && l.AllHalted() }

// Round returns the next round to execute: the counted rounds so far.
func (l *Ledger) Round() int { return l.metrics.Rounds }

// Metrics returns a snapshot of the accumulated cost accounting.
func (l *Ledger) Metrics() Metrics { return l.metrics }

// Sent counts one sender's traffic of the open round: msgs payloads of
// bits total bits, inflight of which reach a live receiver.
func (l *Ledger) Sent(msgs, bits int64, inflight int) {
	l.metrics.Messages += msgs
	l.metrics.Bits += bits
	l.pending += inflight
}

// Charge raises the open round's maxima with one sender's LinkMeter
// charge.
func (l *Ledger) Charge(slots, channels int) {
	l.slots = max(l.slots, slots)
	l.channels = max(l.channels, channels)
}

// FinishRound closes the open round. The round charges its maximum slot
// count over senders; a counted round charges at least 1 and advances
// Rounds, while the Init pseudo-round (counted=false) charges slots only.
func (l *Ledger) FinishRound(counted bool) {
	m := &l.metrics
	m.MaxLinkSlots = max(m.MaxLinkSlots, l.slots)
	m.MaxChannels = max(m.MaxChannels, l.channels)
	charge := int64(l.slots)
	if counted {
		charge = max(charge, 1)
		m.Rounds++
	}
	m.ChargedRounds += charge
	l.inflight, l.pending = l.pending, 0
	l.slots, l.channels = 0, 0
}
