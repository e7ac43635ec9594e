package adversary

import "anonlead/internal/sim"

// AdaptiveCrash is the traffic-adaptive crash adversary: it watches the
// per-round send counts the simulator feeds it (sim.TrafficAdaptive),
// accumulates traffic over a window of rounds, and at each window boundary
// crash-stops the K busiest nodes — targeting the busiest node is a proxy
// for targeting the emerging leader, the adaptive model the static F1–F5
// ladders cannot express.
//
// No seed is involved: the victims are a pure function of the observed
// traffic, and the traffic itself is deterministic (route() is
// single-threaded in node order under every scheduler), so adaptive runs
// remain byte-identical across Sequential and WorkerPool.
//
// Ties break to the lower node index; nodes with zero accumulated traffic
// are never picked (a crashed or silent node is not a leader candidate).
// Strikes bounds how many windows actually claim victims — after that many
// non-empty picks the adversary goes dormant, so a bounded-fault run
// can still terminate.
type AdaptiveCrash struct {
	k       int
	window  int
	strikes int
	fired   int     // windows that have claimed victims so far
	rounds  int     // rounds accumulated in the current window
	acc     []int64 // per-node traffic in the current window
	picks   []int   // reusable victim buffer handed to the simulator
}

// NewAdaptiveCrash builds an adaptive crash adversary for an n-node
// network: every window rounds it crashes the k busiest nodes of that
// window, at most strikes times. k, window, and strikes are clamped to a
// minimum of 1.
func NewAdaptiveCrash(n, k, window, strikes int) *AdaptiveCrash {
	if k < 1 {
		k = 1
	}
	if window < 1 {
		window = 1
	}
	if strikes < 1 {
		strikes = 1
	}
	return &AdaptiveCrash{k: k, window: window, strikes: strikes, acc: make([]int64, n)}
}

// CrashRound implements sim.Adversary: adaptive crashes are scheduled via
// ObserveTraffic, never up front.
func (a *AdaptiveCrash) CrashRound(int) int { return -1 }

// MaxDelay implements sim.Adversary.
func (a *AdaptiveCrash) MaxDelay() int { return 0 }

// Fate implements sim.Adversary (packets are untouched; only nodes die).
func (a *AdaptiveCrash) Fate(int, int, int, int) (bool, int) { return false, 0 }

// ObserveTraffic implements sim.TrafficAdaptive. The Init pseudo-round
// (round -1) is skipped: every protocol announces on Init, so it carries
// no targeting signal.
func (a *AdaptiveCrash) ObserveTraffic(round int, sent []int) []int {
	if round < 0 || a.fired >= a.strikes {
		return nil
	}
	for v, s := range sent {
		a.acc[v] += int64(s)
	}
	a.rounds++
	if a.rounds < a.window {
		return nil
	}
	a.rounds = 0
	a.picks = a.picks[:0]
	for len(a.picks) < a.k {
		best, bestAcc := -1, int64(0)
		for v, t := range a.acc {
			if t > bestAcc {
				best, bestAcc = v, t
			}
		}
		if best < 0 {
			break // nobody (left) sent anything this window
		}
		a.acc[best] = 0 // claimed — also excludes it from further picks
		a.picks = append(a.picks, best)
	}
	for v := range a.acc {
		a.acc[v] = 0
	}
	if len(a.picks) == 0 {
		return nil
	}
	a.fired++
	return a.picks
}

// adaptiveComposite is a composite whose layers include at least one
// traffic-adaptive adversary: observations fan out to every adaptive
// layer, victim lists concatenate in layer order.
type adaptiveComposite struct {
	composite
	adaptive []sim.TrafficAdaptive
	picks    []int
}

// ObserveTraffic implements sim.TrafficAdaptive.
func (c *adaptiveComposite) ObserveTraffic(round int, sent []int) []int {
	c.picks = c.picks[:0]
	for _, a := range c.adaptive {
		c.picks = append(c.picks, a.ObserveTraffic(round, sent)...)
	}
	return c.picks
}
