// Command perfbench is the cobcast end-to-end benchmark. One invocation
// runs one workload and prints, as the last line of its standard output,
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload udp-n4 --seed 1 --seconds 36 --trace 0
//
// --trace 0 measures the end-to-end metrics with instrumentation off;
// --trace 1 is the separate traced run that reports the per-layer
// metrics. Both run in this one process. The seed fixes sender choice,
// group assignment and the in-memory network's loss pattern. Every
// delivery is checked for exactly-once, per-source FIFO and causal
// order; any violation makes the run exit non-zero. METRICS.md
// describes the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one cluster shape and traffic mix.
type workload struct {
	name string
	// n is the cluster size; nodes 0..senders-1 broadcast, the rest only
	// confirm.
	n, senders int
	// udp selects NewNode over loopback NewUDPTransport; otherwise the
	// in-process NewCluster (memnet) is used.
	udp bool
	// groups > 0 spreads traffic round-robin over GroupIDs 1..groups via
	// GroupPort; 0 uses the default group.
	groups int
	// loss is the seeded memnet loss rate (in-process clusters only).
	loss float64
	// rate is the fixed open-loop offered load in messages per second.
	rate float64
	// window bounds the closed loop's outstanding messages (submitted but
	// not yet delivered at every node). It is sized so the processor,
	// not the window, sets the saturation rate, and to hold several
	// generator timer periods of traffic at that rate.
	window int
	// drain is how long a phase waits, after its last submit, for every
	// message to reach every node before counting the rest as failed.
	drain time.Duration
	// replayNode is whose captured inbound stream the traced run replays
	// through internal/pdu and internal/core.
	replayNode int
}

func (w workload) nGroups() int {
	if w.groups == 0 {
		return 1
	}
	return w.groups
}

var workloads = []workload{
	{name: "udp-n4", n: 4, senders: 4, udp: true, rate: 10000, window: 2048,
		drain: 3 * time.Second, replayNode: 0},
	{name: "udp-n16-sparse", n: 16, senders: 2, udp: true, rate: 3000, window: 1024,
		drain: 3 * time.Second, replayNode: 15},
	{name: "mem-groups-lossy", n: 4, senders: 4, groups: 8, loss: 0.02, rate: 15000, window: 16384,
		drain: 5 * time.Second, replayNode: 0},
}

// warmup is the unmeasured fixed-rate run before the measured phases.
const warmup = time.Second

// setupRepeats is how many times a run builds and warms its cluster;
// setup_s is the median.
const setupRepeats = 31

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics and prints them, one per line for people
// (with sample counts) and as the final JSON line.
type report struct {
	res   result
	notes []string
}

func newReport() *report {
	return &report{res: result{Correct: true, Metrics: map[string]metric{}}}
}

func (r *report) add(name string, v float64, unit string, note string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	line := fmt.Sprintf("%-32s %14.4f %s", name, v, unit)
	if note != "" {
		line += "  (" + note + ")"
	}
	r.notes = append(r.notes, line)
}

func (r *report) print() {
	sort.Strings(r.notes)
	for _, l := range r.notes {
		fmt.Println(l)
	}
	b, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(b))
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed: sender choice, group assignment, memnet loss")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()

	var w workload
	found := false
	for _, c := range workloads {
		if c.name == *name {
			w, found = c, true
		}
	}
	if !found || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	dur := time.Duration(*seconds) * time.Second
	rep := newReport()
	var err error
	if *trace == 1 {
		err = runTraced(w, *seed, dur, rep)
	} else {
		err = runEndToEnd(w, *seed, dur, rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.print()
	if !rep.res.Correct {
		os.Exit(1)
	}
}

// runEndToEnd is a --trace 0 run: repeated set-up, an unmeasured
// warm-up, a fixed-rate open loop for latency, CPU and heap, then a
// closed loop for saturation throughput, each half of dur. Every figure
// is taken over its whole phase.
func runEndToEnd(w workload, seed int64, dur time.Duration, rep *report) error {
	c, setup, err := buildRepeated(w, seed)
	if err != nil {
		return err
	}
	// Heap, GC pacing and the runtime's thread pool settle during the
	// warm-up, before anything is timed.
	c.openLoop(w.rate, warmup)
	open := c.openLoop(w.rate, dur/2)
	heap := c.liveHeapMB()
	closed := c.closedLoop(w.window, dur/2)
	c.close()

	rep.add("setup_s", median(setup), "s", fmt.Sprintf("median of %d set-ups: %s", len(setup), fmtValues(setup)))
	n := len(open.lat)
	rep.add("lat_p50_us", percentile(open.lat, 0.50)/1e3, "us", fmt.Sprintf("%d deliveries at %.0f msg/s", n, w.rate))
	rep.add("lat_p90_us", percentile(open.lat, 0.90)/1e3, "us", fmt.Sprintf("%d beyond it", n/10))
	// p99 tracks how often the host stalls the process and spreads past
	// any regression bound between runs, so it is printed, not gated.
	rep.notes = append(rep.notes, fmt.Sprintf("# lat_p99_us %.1f us (%d beyond it)", percentile(open.lat, 0.99)/1e3, n/100))
	rep.add("cpu_us_per_msg", open.cpuPerMsgUS(), "us", fmt.Sprintf("%.3f s CPU over %d msgs delivered everywhere", open.cpu.Seconds(), open.completed))
	rep.add("heap_live_mb", heap, "MB", "forced GC after the fixed-rate phase")
	rep.add("sat_msgs_per_s", closed.rate(), "msg/s", fmt.Sprintf("%d msgs in %.2fs, window %d, busy %.2f of %d CPUs",
		closed.completed, closed.elapsed.Seconds(), w.window, closed.busyFrac(), runtime.GOMAXPROCS(0)))
	attempted := open.attempted + closed.attempted
	failed := open.failed + closed.failed
	rep.add("delivered_frac", 1-float64(failed)/float64(attempted), "frac",
		fmt.Sprintf("fail_frac %.6f: %d of %d failed", float64(failed)/float64(attempted), failed, attempted))
	rep.notes = append(rep.notes, fmt.Sprintf("# generator lateness p99 %.3f ms (n=%d ticks)", percentile(open.late, 0.99)/1e6, len(open.late)))
	c.finish(rep, attempted, failed)
	return nil
}

// buildRepeated builds and warms the workload's cluster setupRepeats
// times and returns each set-up's duration. Each set-up draws its own
// memnet loss pattern from the seed: with one pattern for all of them,
// a seed that drops a warm-up PDU would make every set-up wait for
// repair, and the median would follow the seed, not the program. The
// cluster kept for the load is the last one, built with the run's seed.
func buildRepeated(w workload, seed int64) (*cluster, []float64, error) {
	var setups []float64
	for i := setupRepeats - 1; ; i-- {
		c, d, err := build(w, seed+int64(i)<<32, 0)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
		if i == 0 {
			return c, setups, nil
		}
		c.close()
		if err := c.violation(); err != nil {
			return nil, nil, err
		}
	}
}

func fmtValues(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return strings.Join(s, " ")
}
