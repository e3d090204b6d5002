package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"shield5g/internal/chaos"
	"shield5g/internal/gnb"
	"shield5g/internal/sbi"
	"shield5g/internal/ue"
)

// gapTimer records, per driver worker, the wall time between consecutive
// NewUE/Device callbacks: one registration (or storm arrival) each. Worker
// w only touches its own slots, so no locking is needed. Each driver call
// closes a segment; the first registration of a call has no predecessor
// and each worker's last one in a call no successor, so neither is
// sampled.
type gapTimer struct {
	last []time.Time
	gaps [][]time.Duration
	// ends[c][w] is len(gaps[w]) when segment c closed; closed segments
	// are ends[:closed].
	ends   [][]int
	closed int
}

func newGapTimer(workers, capacity, segments int) *gapTimer {
	g := &gapTimer{
		last: make([]time.Time, workers),
		gaps: make([][]time.Duration, workers),
		ends: make([][]int, segments),
	}
	for w := range g.gaps {
		g.gaps[w] = make([]time.Duration, 0, capacity/workers+1)
	}
	for c := range g.ends {
		g.ends[c] = make([]int, workers)
	}
	return g
}

func (g *gapTimer) tick(w int) {
	now := time.Now()
	if !g.last[w].IsZero() {
		g.gaps[w] = append(g.gaps[w], now.Sub(g.last[w]))
	}
	g.last[w] = now
}

// closeSegment ends the current driver call's segment.
func (g *gapTimer) closeSegment() {
	for w := range g.last {
		g.ends[g.closed][w] = len(g.gaps[w])
		g.last[w] = time.Time{}
	}
	g.closed++
}

// segments returns each closed segment's samples, all workers merged.
func (g *gapTimer) segments() [][]time.Duration {
	out := make([][]time.Duration, g.closed)
	for c, end := range g.ends[:g.closed] {
		for w, e := range end {
			start := 0
			if c > 0 {
				start = g.ends[c-1][w]
			}
			out[c] = append(out[c], g.gaps[w][start:e]...)
		}
	}
	return out
}

// window is the outcome of one timed window.
type window struct {
	regs, attempted, failed, shed int
	wall                          time.Duration
	// rates and cpuRates are per-driver-call registration rates over wall
	// and process CPU time (closed loop), or the storm's overall rates.
	rates, cpuRates []float64
	cpu             time.Duration
	// segments are the per-registration wall gaps, one slice per driver
	// call (closed loop) or per run of consecutive arrivals (storm).
	segments [][]time.Duration
	// setups are the virtual per-UE session setup times.
	setups        []time.Duration
	before, after counters
	heapLive      uint64
	storm         *gnb.StormResult
	// first is the first driver call's virtual fingerprint (closed loop),
	// for the same-seed replay check.
	first fingerprint
}

// fingerprint is the virtual outcome of one closed-loop driver call.
type fingerprint struct {
	setups      []time.Duration
	transitions uint64
	clock       uint64
}

func (f fingerprint) equal(o fingerprint) bool {
	return f.transitions == o.transitions && f.clock == o.clock && slices.Equal(f.setups, o.setups)
}

// chunkBounds splits n devices into the workload's driver calls.
func (w *workload) chunkBounds(n int) [][2]int {
	out := make([][2]int, 0, windowChunks)
	for c := 0; c < windowChunks; c++ {
		lo, hi := c*n/windowChunks, (c+1)*n/windowChunks
		if hi > lo {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// runClosedLoop drives the window's devices through RegisterManyWith, one
// call per chunk. Only the driver calls are timed.
func runClosedLoop(ctx context.Context, r *rig, onlyFirst bool) (*window, error) {
	s := r.slice()
	devs := r.devices[warmupUEs:]
	bounds := r.w.chunkBounds(len(devs))
	if onlyFirst {
		bounds = bounds[:1]
	}
	gt := newGapTimer(r.w.parallel, len(devs), len(bounds))
	results := make([]*gnb.MassResult, 0, len(bounds))
	walls := make([]time.Duration, 0, len(bounds))
	cpus := make([]time.Duration, 0, len(bounds))
	var first fingerprint

	win := &window{before: beginWindow(s)}
	for c, b := range bounds {
		e0, k0 := enclaveTotals(s), s.Env.Clock.Elapsed()
		t0, c0 := time.Now(), processCPU()
		res, err := s.GNB.RegisterManyWith(ctx, r.massOptions(devs[b[0]:b[1]], gt.tick))
		walls = append(walls, time.Since(t0))
		cpus = append(cpus, processCPU()-c0)
		gt.closeSegment()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.w.name, err)
		}
		results = append(results, res)
		if c == 0 {
			e1 := enclaveTotals(s)
			first.transitions = e1.EENTER + e1.EEXIT - e0.EENTER - e0.EEXIT
			first.clock = uint64(s.Env.Clock.Elapsed() - k0)
		}
	}
	win.after = endWindow(s)

	for i, res := range results {
		win.regs += res.Registered
		win.failed += res.Failed
		win.attempted += bounds[i][1] - bounds[i][0]
		win.wall += walls[i]
		win.cpu += cpus[i]
		win.rates = append(win.rates, float64(res.Registered)/walls[i].Seconds())
		win.cpuRates = append(win.cpuRates, float64(res.Registered)/cpus[i].Seconds())
		win.setups = append(win.setups, res.SetupTimes.Samples()...)
		for class, n := range res.FailureCounts {
			fmt.Printf("# failure class %s: %d, first: %v\n", class, n, res.FirstErrors[class])
		}
	}
	first.setups = results[0].SetupTimes.Samples()
	win.first = first
	win.segments = gt.segments()
	return win, nil
}

// runStorm replays the plan through RunStorm with the overload machinery
// armed. RunStorm charges queue wait from each arrival's due time.
func runStorm(ctx context.Context, r *rig) (*window, error) {
	s := r.slice()
	gt := newGapTimer(1, len(r.plan.Events), 1)
	devices := r.stormDevices(func() { gt.tick(0) })
	win := &window{before: beginWindow(s)}
	t0, c0 := time.Now(), processCPU()
	res, err := stormOnce(ctx, r, devices)
	win.wall, win.cpu = time.Since(t0), processCPU()-c0
	win.after = endWindow(s)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.w.name, err)
	}
	win.storm = res
	win.attempted = len(r.plan.Events)
	win.regs = res.TotalRegistered()
	win.shed = res.TotalShed()
	for c := range res.Class {
		win.failed += res.Class[c].Failed
		win.setups = append(win.setups, res.Class[c].SetupTimes.Samples()...)
	}
	for class, n := range res.FailureCounts {
		if class != sbi.CauseOverload && class != sbi.CauseCircuitOpen {
			fmt.Printf("# failure class %s: %d, first: %v\n", class, n, res.FirstErrors[class])
		}
	}
	win.rates = []float64{float64(win.regs) / win.wall.Seconds()}
	win.cpuRates = []float64{float64(win.regs) / win.cpu.Seconds()}
	gt.closeSegment()
	win.segments = split(gt.segments()[0], stormSegments)
	return win, nil
}

// stormOnce replays the rig's plan once, with the overload machinery armed
// for exactly the replay.
func stormOnce(ctx context.Context, r *rig, devices func(chaos.StormEvent) (*ue.UE, error)) (*gnb.StormResult, error) {
	s := r.slice()
	s.SetOverloadArmed(true)
	defer s.SetOverloadArmed(false)
	return s.GNB.RunStorm(ctx, gnb.StormOptions{Plan: r.plan, Device: devices, Source: "gnb-1"})
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// checkClosedLoop verifies the closed-loop outputs: no failures, every
// device holds a GUTI, and the AMFs hold exactly the registered UEs.
func checkClosedLoop(r *rig, win *window) []string {
	var bad []string
	if win.failed > 0 {
		bad = append(bad, fmt.Sprintf("%d registrations failed", win.failed))
	}
	if win.regs != win.attempted {
		bad = append(bad, fmt.Sprintf("registered %d of %d", win.regs, win.attempted))
	}
	noGUTI := 0
	for _, d := range r.devices {
		if _, ok := d.GUTI(); !ok {
			noGUTI++
		}
	}
	if noGUTI > 0 {
		bad = append(bad, fmt.Sprintf("%d devices hold no GUTI", noGUTI))
	}
	if got, want := r.registeredUEs(), warmupUEs+win.regs; got != want {
		bad = append(bad, fmt.Sprintf("AMF RegisteredUEs %d, want %d", got, want))
	}
	return bad
}

// checkStorm verifies every class's outcome accounting against the plan.
func checkStorm(r *rig, win *window) []string {
	var bad []string
	for c := range win.storm.Class {
		cr := win.storm.Class[c]
		name := sbi.Priority(c).String()
		if want := r.plan.ClassCount(sbi.Priority(c)); cr.Offered != want {
			bad = append(bad, fmt.Sprintf("%s offered %d, plan has %d", name, cr.Offered, want))
		}
		if cr.Offered != cr.Registered+cr.Shed+cr.Failed {
			bad = append(bad, fmt.Sprintf("%s offered %d != registered %d + shed %d + failed %d",
				name, cr.Offered, cr.Registered, cr.Shed, cr.Failed))
		}
	}
	return bad
}

// sameStorm compares two replays of one plan: every class's counts,
// makespan and setup-time series.
func sameStorm(a, b *gnb.StormResult) bool {
	if a.Makespan != b.Makespan || a.Window != b.Window {
		return false
	}
	for c := range a.Class {
		x, y := a.Class[c], b.Class[c]
		if x.Offered != y.Offered || x.Registered != y.Registered || x.Shed != y.Shed ||
			x.Failed != y.Failed || x.Makespan != y.Makespan ||
			!slices.Equal(x.SetupTimes.Samples(), y.SetupTimes.Samples()) {
			return false
		}
	}
	return true
}

// metric is one reported figure.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// e2eMetrics derives the end-to-end metrics of a window. The gated list
// is the BENCHMARK.json set: present and non-zero on every workload, and
// timed in process CPU time, which leaves out hypervisor steal. The extra
// list holds the wall-clock figures and those that are zero or undefined
// on some workload. Wall-time percentiles are the median over the
// window's segments of each segment's percentile, so a burst of host
// interference moves a few segments rather than the whole figure.
func e2eMetrics(win *window, setupCPU, setupWall time.Duration) (gated, extra []metric, notes []string) {
	wall50, n50 := segmentQuantile(win.segments, 0.50)
	wall99, n99 := segmentQuantile(win.segments, 0.99)
	set50, oks50 := supportedQuantile(win.setups, 0.50)
	set99, oks99 := supportedQuantile(win.setups, 0.99)
	notes = append(notes, n50, n99,
		supportNote("setup_p50_ms", set50, oks50), supportNote("setup_p99_ms", set99, oks99))
	d := delta(win.before, win.after)
	gated = []metric{
		{"regs_per_cpu_s", median(win.cpuRates), "1/s"},
		{"setup_p50_ms", ms(set50.Value), "ms"},
		{"setup_p99_ms", ms(set99.Value), "ms"},
		{"transitions_per_reg", perReg(float64(d.enclave.EENTER+d.enclave.EEXIT), win.regs), "count"},
		{"allocs_per_reg", perReg(float64(d.mallocs), win.regs), "count"},
		{"bytes_per_reg", perReg(float64(d.bytes), win.regs), "B"},
		{"heap_live_mb", float64(win.heapLive) / (1 << 20), "MiB"},
		{"setup_s", setupCPU.Seconds(), "s"},
	}
	extra = []metric{
		{"regs_per_s", median(win.rates), "1/s"},
		{"reg_wall_p50_us", usOrNaN(wall50), "us"},
		{"reg_wall_p99_us", usOrNaN(wall99), "us"},
		{"setup_wall_s", setupWall.Seconds(), "s"},
		{"failed_frac", frac(float64(win.failed), float64(win.attempted)), "ratio"},
	}
	if win.storm != nil {
		em := win.storm.Class[sbi.PriorityEmergency]
		e99, oke := supportedQuantile(em.SetupTimes.Samples(), 0.99)
		notes = append(notes, supportNote("emergency_p99_ms", e99, oke))
		extra = append(extra,
			metric{"shed_frac", frac(float64(win.shed), float64(win.attempted)), "ratio"},
			metric{"emergency_goodput_per_s", em.GoodputPerSec, "1/s"},
			metric{"emergency_p99_ms", ms(e99.Value), "ms"},
		)
	}
	return gated, extra, notes
}

// segmentQuantile is the median over segments of each segment's
// supported q-quantile, with a note on the support actually reached.
func segmentQuantile(segments [][]time.Duration, q float64) (time.Duration, string) {
	var vals []time.Duration
	lowest, samples := q, 0
	for _, seg := range segments {
		sq, ok := supportedQuantile(seg, q)
		if !ok {
			continue
		}
		vals = append(vals, sq.Value)
		samples += sq.N
		if sq.Q < lowest {
			lowest = sq.Q
		}
	}
	if len(vals) == 0 {
		// Segments too small for any supported percentile: pool them.
		all, ok := supportedQuantile(flatten(segments), q)
		if !ok {
			return -1, fmt.Sprintf("reg_wall p%g: unsupported, only %d samples", 100*q, all.N)
		}
		return all.Value, supportNote(fmt.Sprintf("reg_wall p%g (pooled)", 100*q), all, ok)
	}
	note := fmt.Sprintf("reg_wall p%g: median over %d segments (%d samples) of segment p%.4g",
		100*q, len(vals), samples, 100*lowest)
	return medianDuration(vals), note
}

// stormSegments is how many runs of consecutive arrivals the storm's wall
// gaps are split into.
const stormSegments = 10

// split cuts xs into k consecutive, nearly equal parts.
func split(xs []time.Duration, k int) [][]time.Duration {
	out := make([][]time.Duration, 0, k)
	for c := 0; c < k; c++ {
		if part := xs[c*len(xs)/k : (c+1)*len(xs)/k]; len(part) > 0 {
			out = append(out, part)
		}
	}
	return out
}

func flatten(segments [][]time.Duration) []time.Duration {
	var out []time.Duration
	for _, seg := range segments {
		out = append(out, seg...)
	}
	return out
}

func supportNote(name string, q quantile, ok bool) string {
	if !ok {
		return fmt.Sprintf("%s: unsupported, only %d samples", name, q.N)
	}
	return fmt.Sprintf("%s: p%.4g of %d samples, %d beyond", name, 100*q.Q, q.N, q.Beyond)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// usOrNaN is us for a measured duration and NaN for a negative one (no
// supported percentile), which fails the run's output check.
func usOrNaN(d time.Duration) float64 {
	if d < 0 {
		return math.NaN()
	}
	return us(d)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
