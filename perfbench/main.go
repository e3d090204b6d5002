// Command perfbench is the repository benchmark: it deploys a shielded
// slice through the public deploy/core API, drives one workload through
// the product's own registration drivers, checks the outputs, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics).
//
//	perfbench --workload classic|fastpath|storm10x --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(run())
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run() int {
	name := flag.String("workload", "", "workload: classic, fastpath or storm10x")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "run length; sets the measured work")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.Parse()

	w, ok := workloads()[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload classic|fastpath|storm10x, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	ctx := context.Background()
	fmt.Printf("# perfbench %s seed=%d seconds=%d trace=%d GOMAXPROCS=%d %s\n",
		w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.Version())

	var out *runOutput
	var err error
	if *trace == 1 {
		out, err = tracedRun(ctx, w, *seed, *seconds)
	} else {
		out, err = endToEndRun(ctx, w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return out.print()
}

// runOutput is what a run reports: the JSON metrics, figures printed for
// reading only, and every failed output check.
type runOutput struct {
	metrics   []metric
	extra     []metric
	notes     []string
	bad       []string
	attempted int
	failed    int
}

func (o *runOutput) print() int {
	for _, n := range o.notes {
		fmt.Printf("# %s\n", n)
	}
	res := result{
		Correct:   len(o.bad) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(o.metrics)),
	}
	for _, m := range o.extra {
		fmt.Printf("%-40s %14.6g %s (not in BENCHMARK.json)\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range o.metrics {
		fmt.Printf("%-40s %14.6g %s\n", m.Name, m.Value, m.Unit)
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			o.bad = append(o.bad, fmt.Sprintf("metric %s is not a number", m.Name))
			res.Correct = false
			continue
		}
		res.Metrics[m.Name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	for _, b := range o.bad {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", b)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// endToEndRun sets the workload up w.setups times (setup_s is the median),
// measures the timed window on the first slice, and replays the
// sequential workloads on the second to check same-seed determinism.
func endToEndRun(ctx context.Context, w *workload, seed uint64, seconds int) (*runOutput, error) {
	n := w.size(seconds)
	out := &runOutput{}
	var setupWalls, setupCPUs []time.Duration
	var win *window

	for i := 0; i < w.setups; i++ {
		runtime.GC()
		r, err := setup(ctx, w, seed, n)
		if err != nil {
			return nil, err
		}
		setupWalls = append(setupWalls, r.setupWall)
		setupCPUs = append(setupCPUs, r.setupCPU)
		out.notes = append(out.notes, fmt.Sprintf("setup %d: %.3f s wall, %.3f s CPU, %d allocations",
			i+1, r.setupWall.Seconds(), r.setupCPU.Seconds(), r.setupAllocs))
		switch {
		case i == 0:
			win, err = measure(ctx, r)
			if err == nil {
				out.bad = append(out.bad, check(r, win)...)
				win.heapLive = liveHeap()
			}
		case i == 1 && w.parallel <= 1:
			// Sequential workloads: a same-seed replay must reproduce the
			// window's virtual outcome exactly.
			var again *window
			if again, err = replay(ctx, r); err == nil {
				if !sameOutcome(win, again) {
					out.bad = append(out.bad, "same-seed replay diverged from the measured window")
				}
				// The replay is timed like the window; its CPU rate is one
				// more sample of the same work.
				win.cpuRates = append(win.cpuRates, again.cpuRates...)
			}
		}
		r.close()
		if err != nil {
			return nil, err
		}
	}

	gated, extra, notes := e2eMetrics(win, medianDuration(setupCPUs), medianDuration(setupWalls))
	notes = append(notes, fmt.Sprintf("regs_per_cpu_s: median of %d driver-call rates", len(win.cpuRates)))
	out.metrics, out.extra, out.notes = gated, extra, append(out.notes, notes...)
	out.notes = append(out.notes, fmt.Sprintf("window: %d attempted, %d registered, %d shed, %d failed in %.3f s wall, %.3f s CPU",
		win.attempted, win.regs, win.shed, win.failed, win.wall.Seconds(), win.cpu.Seconds()))
	out.attempted, out.failed = win.attempted, win.failed
	return out, nil
}

func measure(ctx context.Context, r *rig) (*window, error) {
	if r.w.storm {
		return runStorm(ctx, r)
	}
	return runClosedLoop(ctx, r, false)
}

func check(r *rig, win *window) []string {
	if r.w.storm {
		return checkStorm(r, win)
	}
	return checkClosedLoop(r, win)
}

// replay reruns the measured window's start on a same-seed slice: the
// whole storm, or the first closed-loop driver call.
func replay(ctx context.Context, r *rig) (*window, error) {
	if r.w.storm {
		return runStorm(ctx, r)
	}
	return runClosedLoop(ctx, r, true)
}

// sameOutcome compares a replay's virtual outcome with the window's.
func sameOutcome(win, again *window) bool {
	if win.storm != nil {
		return sameStorm(win.storm, again.storm)
	}
	return win.first.equal(again.first)
}
