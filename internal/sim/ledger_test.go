package sim

import "testing"

// TestLinkMeterCharge pins the per-sender slot rule: same-channel loads
// on a port coalesce, distinct channels never share a slot, the charge is
// the maximum over ports, and Charge clears the meter for the next sender.
func TestLinkMeterCharge(t *testing.T) {
	m := NewLinkMeter(3, 8)
	m.Add(0, 0, 4)
	m.Add(2, 5, 8)
	m.Add(0, 0, 4) // coalesces: 8 bits on (0, 0) -> 1 slot
	m.Add(0, 1, 9) // second channel on port 0 -> 2 more slots
	m.Add(2, 0, 0) // empty payloads still take a slot
	if slots, channels := m.Charge(); slots != 3 || channels != 2 {
		t.Fatalf("Charge = (%d, %d), want (3, 2)", slots, channels)
	}
	if slots, channels := m.Charge(); slots != 0 || channels != 0 {
		t.Fatalf("idle sender charged (%d, %d), want (0, 0)", slots, channels)
	}
	m.Add(1, 7, 17)
	if slots, channels := m.Charge(); slots != 3 || channels != 1 {
		t.Fatalf("next sender charged (%d, %d), want (3, 1)", slots, channels)
	}
}

// TestLedgerRoundRules pins the counted-round rule and the stop rule: a
// counted round charges at least 1, the Init pseudo-round charges slots
// only, and the run is done once every node halted with nothing in flight.
func TestLedgerRoundRules(t *testing.T) {
	l := NewLedger(2, 0)
	if got := l.Metrics().CongestBits; got != DefaultCongestBits(2) {
		t.Fatalf("default budget %d, want %d", got, DefaultCongestBits(2))
	}
	l.FinishRound(false) // silent Init
	l.Sent(2, 10, 1)
	l.Charge(2, 1)
	l.FinishRound(true)
	l.FinishRound(true) // silent counted round
	m := l.Metrics()
	if m.Rounds != 2 || m.ChargedRounds != 3 || m.MaxLinkSlots != 2 || m.Messages != 2 || m.Bits != 10 {
		t.Fatalf("metrics %+v", m)
	}
	l.Halt(0)
	l.Halt(1)
	if !l.Done() || l.HaltedCount() != 2 {
		t.Fatal("all halted with nothing in flight, but not done")
	}
}
