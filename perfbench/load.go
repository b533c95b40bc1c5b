package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"cobcast/obsv"
)

// tick is the open loop's arrival period: every tick a batch of
// rate×tick messages falls due. The Go timer cannot sleep much below a
// millisecond here, so arrivals are batched at that granularity and
// every message is timed from its batch's due time.
const tick = time.Millisecond

// phase is one measured load phase.
type phase struct {
	attempted, failed uint64
	// completed counts messages of the phase delivered at every node.
	completed uint64
	elapsed   time.Duration
	cpu       time.Duration
	// lat holds the open loop's delivery latencies (ns, sorted); late
	// is the generator's lateness per tick (ns, sorted).
	lat, late []float64
}

// cpuPerMsgUS is process CPU per message delivered everywhere.
func (p *phase) cpuPerMsgUS() float64 {
	return float64(p.cpu.Microseconds()) / float64(p.completed)
}

// rate is messages delivered everywhere per second.
func (p *phase) rate() float64 { return float64(p.completed) / p.elapsed.Seconds() }

// busyFrac is process CPU time over the phase's wall time and
// GOMAXPROCS: near 1 means the processor set the rate.
func (p *phase) busyFrac() float64 {
	return p.cpu.Seconds() / (p.elapsed.Seconds() * float64(runtime.GOMAXPROCS(0)))
}

// openLoop offers rate msg/s for d, then waits up to the workload's
// drain time for every message to reach every node. Latency is timed
// from each message's due time to its delivery at each node.
func (c *cluster) openLoop(rate float64, d time.Duration) *phase {
	ph := &phase{}
	undone0 := c.nsent - c.completed()
	sent0, errs0 := c.nsent, c.errs
	cpu0 := cpuTime()
	wall0 := time.Now()

	start := c.clock() + int64(tick)
	end := start + int64(d)
	perTick := rate * tick.Seconds()
	acc := 0.0
	var late []int64
	for due := start; due < end; due += int64(tick) {
		if now := c.clock(); now < due {
			time.Sleep(time.Duration(due - now))
		}
		late = append(late, c.clock()-due)
		acc += perTick
		k := int(acc)
		acc -= float64(k)
		for ; k > 0; k-- {
			c.next(due, true)
		}
	}
	c.drain(ph, undone0, sent0, errs0)
	ph.cpu = cpuTime() - cpu0
	ph.elapsed = time.Since(wall0)

	ph.lat = sortedNs(c.takeSamples())
	ph.late = sortedNs(late)
	return ph
}

// closedLoop keeps up to window messages outstanding (submitted but not
// yet delivered everywhere) for d; the first tenth is an unmeasured
// ramp. It reports the completion rate and CPU over the rest.
func (c *cluster) closedLoop(window int, d time.Duration) *phase {
	ph := &phase{}
	undone0 := c.nsent - c.completed()
	sent0, errs0 := c.nsent, c.errs
	rampEnd := time.Now().Add(d / 10)
	end := rampEnd.Add(d - d/10)

	var done0 uint64
	var cpu0 time.Duration
	var wall0 time.Time
	measuring := false
	for {
		now := time.Now()
		if !measuring && now.After(rampEnd) {
			measuring = true
			done0, cpu0, wall0 = c.completed(), cpuTime(), now
		}
		if now.After(end) {
			break
		}
		// Refill the window, then sleep one timer period: the window is
		// sized to hold many periods of traffic, so the nodes never run
		// dry while the generator sleeps, and no delivery has to wake it.
		for n := c.nsent - c.completed(); n < uint64(window); n++ {
			c.next(c.clock(), false)
		}
		time.Sleep(tick)
	}
	completed := c.completed() - done0
	ph.cpu = cpuTime() - cpu0
	ph.elapsed = time.Since(wall0)
	c.drain(ph, undone0, sent0, errs0)
	ph.completed = completed
	return ph
}

// drain waits for the phase's messages to reach every node and fills
// in its attempted, failed and completed counts.
func (c *cluster) drain(ph *phase, undone0, sent0, errs0 uint64) {
	c.waitCompleted(c.nsent, time.Now().Add(c.w.drain))
	undone := c.nsent - c.completed()
	ph.attempted = c.nsent - sent0 + c.errs - errs0
	ph.failed = c.errs - errs0
	if undone > undone0 {
		ph.failed += undone - undone0
	}
	ph.completed = c.nsent - sent0 - (undone - min(undone, undone0))
}

// liveHeapMB forces a collection and returns the live heap in MB. Call
// it while the benchmark holds no samples, so the figure is the
// cluster's own.
func (c *cluster) liveHeapMB() float64 {
	return float64(obsv.LiveHeap()) / 1e6
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// percentile returns the q-quantile of sorted xs by linear
// interpolation (NaN when empty).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	f := pos - float64(i)
	return sorted[i]*(1-f) + sorted[i+1]*f
}

// quantile returns the q-quantile of unsorted xs.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// sortedNs converts ns samples to sorted float64s.
func sortedNs(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	sort.Float64s(out)
	return out
}
