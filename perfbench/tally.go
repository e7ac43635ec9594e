package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// tally accumulates what one run measured.
type tally struct {
	// passes holds the CPU time of every pass, and wall their summed
	// wall-clock time.
	passes []time.Duration
	wall   time.Duration
	// ops holds the CPU time of every operation, in milliseconds.
	ops []float64
	// elections and messages count the work of all passes.
	elections int64
	messages  int64
	// mallocs is the heap-allocation count of all passes.
	mallocs uint64
	// attempted and failed count verified operations.
	attempted int
	failed    int
	// tracedWall/tracedElections time the traced elections of a traced
	// run, plainWall/plainElections the same elections untraced.
	tracedWall, plainWall           time.Duration
	tracedElections, plainElections int64
}

// check counts one verified operation, failing it when err is non-nil.
func (t *tally) check(what string, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.failed <= 10 {
			fmt.Fprintf(stderrLog, "perfbench: verify %s: %v\n", what, err)
		}
	}
}

// passTimer measures one pass: CPU time, wall time and heap
// allocations.
type passTimer struct {
	cpu     time.Duration
	start   time.Time
	mallocs uint64
}

func startPass() passTimer {
	return passTimer{cpu: cpuTime(), start: time.Now(), mallocs: mallocs()}
}

// stop records the pass into t.
func (p passTimer) stop(t *tally) {
	t.passes = append(t.passes, cpuTime()-p.cpu)
	t.wall += time.Since(p.start)
	t.mallocs += mallocs() - p.mallocs
}

// cpuTime is the CPU time the process has used so far, in all its
// threads. The end-to-end metrics are CPU times rather than wall-clock
// times because the hypervisor of a shared virtual machine takes CPU time
// away from it in bursts (see README.md, "Why CPU time").
func cpuTime() time.Duration {
	const clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("perfbench: clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// result assembles the end-to-end metrics of an untraced run. The rates
// are the mean work of a pass over the median pass time: a burst of
// interference from outside the process moves the median less than the
// total. The inputs of different passes differ in their message counts
// but hardly in their cost, which their rounds set.
func (t *tally) result(setup time.Duration) result {
	passes := make([]float64, len(t.passes))
	for i, p := range t.passes {
		passes[i] = p.Seconds()
	}
	pass := median(passes)
	n := float64(len(t.passes))
	ops := append([]float64(nil), t.ops...)
	sort.Float64s(ops)
	values := map[string]float64{
		"elections_per_cpu_s": float64(t.elections) / n / pass,
		"sim_msgs_per_cpu_s":  float64(t.messages) / n / pass,
		"op_cpu_p50_ms":       percentile(ops, 50),
		"op_cpu_p90_ms":       percentile(ops, 90),
		"pass_cpu_s":          pass,
		"setup_s":             setup.Seconds(),
		"allocs_per_msg":      float64(t.mallocs) / float64(t.messages),
		"max_rss_mb":          maxRSSMB(),
	}
	return t.assemble(endToEnd, values)
}

// layerResult assembles the per-layer metrics of a traced run.
func (t *tally) layerResult(lt *layerTotals) result {
	values := lt.perPass(len(t.passes))
	if t.tracedElections > 0 && t.plainElections > 0 {
		traced := float64(t.tracedElections) / t.tracedWall.Seconds()
		plain := float64(t.plainElections) / t.plainWall.Seconds()
		values["trace.overhead_frac"] = 1 - traced/plain
	}
	return t.assemble(perLayer, values)
}

// assemble builds the result line from one value per listed metric.
func (t *tally) assemble(defs []metricDef, values map[string]float64) result {
	res := result{
		Correct:   t.failed == 0 && t.attempted > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			res.Correct = false
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
	}
	return res
}

// percentile returns the p-th percentile (0..100) of sorted values by
// linear interpolation between the closest ranks (0 for no values).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median returns the median of values (which it does not modify).
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// mallocs is the process's cumulative heap-allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// setupCost is the CPU time one set-up spent building graphs and
// profiling them.
type setupCost struct {
	build, profile time.Duration
}

func (c setupCost) total() time.Duration { return c.build + c.profile }

// medianCost returns the set-up whose total is the median of costs.
func medianCost(costs []setupCost) setupCost {
	s := append([]setupCost(nil), costs...)
	sort.Slice(s, func(i, j int) bool { return s[i].total() < s[j].total() })
	return s[len(s)/2]
}

// gcCPUSeconds is the runtime's estimate of the CPU time spent in garbage
// collection so far.
func gcCPUSeconds() float64 {
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return sample[0].Value.Float64()
}

// sum returns the total of durations.
func sum(ds []time.Duration) time.Duration {
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total
}
