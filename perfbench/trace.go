package main

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"shield5g/internal/metrics"
	"shield5g/internal/paka"
	"shield5g/internal/sbi"
	"shield5g/internal/ue"
)

// The traced run reports the per-layer metrics in three phases, each on
// a fresh same-seed slice:
//
//  1. product: the untraced end-to-end window, through the product's own
//     driver, reading every counter and recorder the layers export;
//  2. spans: the same window through the span driver, timing each call
//     into the UE and AMF layers (bench.trace_overhead_frac compares its
//     registration rate with phase 1's);
//  3. profiles: a smaller window under a sampled CPU profile, then one
//     under an exact allocation profile, attributed by package.

// profileUEs and profileArrivals size the profiled windows.
const (
	profileUEs      = 6_000
	profileArrivals = 6_000
)

func tracedRun(ctx context.Context, w *workload, seed uint64, seconds int) (*runOutput, error) {
	n := w.size(seconds)
	out := &runOutput{}

	// Phase 1: the product's driver with counters and recorders.
	r, err := setup(ctx, w, seed, n)
	if err != nil {
		return nil, err
	}
	rec := startRecorders(r)
	win, err := measure(ctx, r)
	if err != nil {
		r.close()
		return nil, err
	}
	out.bad = append(out.bad, check(r, win)...)
	mods := rec.stop(r)
	population := len(r.devices)
	if r.plan != nil {
		population = len(r.plan.Events)
	}
	setupAllocs := r.setupAllocs
	model := r.slice().Env.Model
	r.close()

	// Phase 2: the span driver on a same-seed slice.
	r, err = setup(ctx, w, seed, n)
	if err != nil {
		return nil, err
	}
	spans, spanCPU, err := runSpans(ctx, r)
	r.close()
	if err != nil {
		return nil, err
	}
	if w.parallel <= 1 {
		out.bad = append(out.bad, spanFidelity(win, spans)...)
	}

	// Phase 3: package attribution.
	cpu, allocs, allocRegs, err := runProfiles(ctx, w, seed)
	if err != nil {
		return nil, err
	}

	d := delta(win.before, win.after)
	regs := win.regs
	m := func(name string, v float64, unit string) { out.metrics = append(out.metrics, metric{name, v, unit}) }

	// gnb: the driver's own wall time is the product registration wall
	// left over once the UE and AMF spans are taken out.
	prodWallPerAttempt := meanDuration(flatten(win.segments))
	spanPerAttempt := time.Duration(0)
	if spans.attempts > 0 {
		spanPerAttempt = (spans.ueWall + spans.amfWall) / time.Duration(spans.attempts)
	}
	attemptsPerReg := perReg(float64(win.attempted), regs)
	m("gnb.driver_wall_us_per_reg", us(prodWallPerAttempt-spanPerAttempt)*attemptsPerReg, "us")
	m("gnb.radio_virtual_ms_per_reg", perReg(ms(model.Duration(spans.radioVirt)), spans.regs), "ms")
	m("gnb.nas_rounds_per_reg", perReg(float64(spans.rounds), spans.regs), "count")
	m("ue.wall_us_per_reg", perReg(us(spans.ueWall), spans.regs), "us")
	m("ue.virtual_ms_per_reg", perReg(ms(model.Duration(spans.ueVirt)), spans.regs), "ms")
	m("amf.wall_us_per_reg", perReg(us(spans.amfWall), spans.regs), "us")
	m("amf.virtual_ms_per_reg", perReg(ms(model.Duration(spans.amfVirt)), spans.regs), "ms")

	for _, kind := range paka.Kinds() {
		pm := mods[kind]
		p := "paka." + strings.ToLower(kind.String())
		m(p+".calls_per_reg", perReg(float64(len(pm.total)), regs), "count")
		m(p+".lf_us_p50", us(medianDuration(pm.functional)), "us")
		m(p+".lt_us_p50", us(medianDuration(pm.total)), "us")
		m(p+".resp_us_p50", us(medianDuration(pm.response)), "us")
	}

	m("sgx.eenter_per_reg", perReg(float64(d.enclave.EENTER), regs), "count")
	m("sgx.aex_per_reg", perReg(float64(d.enclave.AEX), regs), "count")
	m("sgx.ocalls_per_reg", perReg(float64(d.enclave.OCALLs), regs), "count")
	m("sgx.page_faults_per_reg", perReg(float64(d.enclave.PageFaults), regs), "count")
	m("sgx.ring.submits_per_reg", perReg(float64(d.ring.Submitted), regs), "count")
	m("sgx.ring.doorbell_frac", frac(float64(d.ring.Doorbells), float64(d.ring.Submitted)), "ratio")
	m("sgx.ring.parks_per_reg", perReg(float64(d.ring.Parks), regs), "count")
	m("sgx.ring.backpressure_per_reg", perReg(float64(d.ring.Backpressure), regs), "count")

	// AV pool: hit share and refills in the window; mint use over the
	// slice's life, so vectors prewarmed during setup count as minted.
	end := win.after.pool
	used := float64(end.Hits + end.Misses)
	m("udm.avpool.hit_frac", frac(float64(d.pool.Hits), float64(d.pool.Hits+d.pool.Misses)), "ratio")
	m("udm.avpool.refills_per_reg", perReg(float64(d.pool.Refills), regs), "count")
	m("udm.avpool.mint_use_frac", frac(used, used+float64(end.Pooled)+float64(end.Invalidated)), "ratio")

	ops := float64(d.resil.Attempts)
	m("sbi.retries_per_op", frac(float64(d.resil.Retries), ops), "ratio")
	m("sbi.throttled_per_op", frac(float64(d.resil.Throttled), ops), "ratio")
	m("sbi.sheds_per_op", frac(float64(d.sheds), ops), "ratio")
	m("sbi.breaker_opens", float64(d.resil.Breaker.Opens), "count")
	for c, name := range []string{"fresh", "reattach", "emergency"} {
		m("admission.drop_frac."+name, frac(float64(d.adm.Dropped[c]), float64(d.adm.Admitted[c]+d.adm.Dropped[c])), "ratio")
	}

	m("runtime.gc_per_kreg", perReg(1000*float64(d.numGC), regs), "count")
	m("runtime.gc_cpu_frac", frac(d.gcCPU, d.totalCPU), "ratio")
	m("runtime.gc_pause_us_per_reg", perReg(float64(d.pauseNs)/1e3, regs), "us")

	var cpuTotal int64
	for _, v := range cpu {
		cpuTotal += v
	}
	for _, l := range layers {
		m("allocs."+l+"_per_reg", perReg(float64(allocs[l]), allocRegs), "count")
	}
	for _, l := range layers {
		m("cpu."+l+"_frac", frac(float64(cpu[l]), float64(cpuTotal)), "ratio")
	}

	untraced := float64(win.regs) / win.cpu.Seconds()
	traced := float64(spans.regs) / spanCPU.Seconds()
	m("bench.trace_overhead_frac", 1-traced/untraced, "ratio")
	m("bench.setup_allocs_per_ue", perReg(float64(setupAllocs), population), "count")

	out.notes = append(out.notes, fmt.Sprintf("product window: %d attempted, %d registered in %.3f s CPU; span window: %d registered in %.3f s CPU; cpu profile %.3f s sampled",
		win.attempted, win.regs, win.cpu.Seconds(), spans.regs, spanCPU.Seconds(), float64(cpuTotal)/1e9))
	out.attempted, out.failed = win.attempted, win.failed
	return out, nil
}

// moduleSamples are one module kind's in-window recorder samples, merged
// over every shard.
type moduleSamples struct {
	functional, total, response []time.Duration
}

// recorders tracks the P-AKA latency recorders over a window: module
// recorders are reset at the start, and the VNF-side response recorders
// (which cannot be reset) are read from their start length.
type recorders struct {
	respStart map[*metrics.Recorder]int
}

func responseRecorders(r *rig) map[paka.ModuleKind][]*metrics.Recorder {
	out := make(map[paka.ModuleKind][]*metrics.Recorder)
	for _, sh := range r.slice().Shards {
		if sh.RemoteUDM != nil {
			out[paka.EUDM] = append(out[paka.EUDM], sh.RemoteUDM.Response().Stable)
			out[paka.EAUSF] = append(out[paka.EAUSF], sh.RemoteAUSF.Response().Stable)
			out[paka.EAMF] = append(out[paka.EAMF], sh.RemoteAMF.Response().Stable)
		}
	}
	return out
}

func startRecorders(r *rig) *recorders {
	rec := &recorders{respStart: make(map[*metrics.Recorder]int)}
	for _, sh := range r.slice().Shards {
		for _, mod := range sh.Modules {
			mod.ResetRecorders()
		}
	}
	for _, rs := range responseRecorders(r) {
		for _, x := range rs {
			rec.respStart[x] = x.N()
		}
	}
	return rec
}

func (rec *recorders) stop(r *rig) map[paka.ModuleKind]*moduleSamples {
	out := make(map[paka.ModuleKind]*moduleSamples)
	for _, kind := range paka.Kinds() {
		out[kind] = &moduleSamples{}
	}
	for _, sh := range r.slice().Shards {
		for kind, mod := range sh.Modules {
			out[kind].functional = append(out[kind].functional, mod.FunctionalLatency().Samples()...)
			out[kind].total = append(out[kind].total, mod.TotalLatency().Samples()...)
		}
	}
	for kind, rs := range responseRecorders(r) {
		for _, x := range rs {
			out[kind].response = append(out[kind].response, x.Samples()[rec.respStart[x]:]...)
		}
	}
	return out
}

// runSpans drives the measured window through the span driver, chunked
// like the product window, and returns its tally and process CPU time.
func runSpans(ctx context.Context, r *rig) (*spanTally, time.Duration, error) {
	d := newSpanDriver(r.slice())
	if r.w.storm {
		s := r.slice()
		s.SetOverloadArmed(true)
		c0 := processCPU()
		t, err := d.storm(ctx, r)
		cpu := processCPU() - c0
		s.SetOverloadArmed(false)
		return t, cpu, err
	}
	devs := r.devices[warmupUEs:]
	total := &spanTally{}
	var cpu time.Duration
	for _, b := range r.w.chunkBounds(len(devs)) {
		c0 := processCPU()
		t, err := d.closedLoop(ctx, r.w, devs[b[0]:b[1]])
		cpu += processCPU() - c0
		if err != nil {
			return nil, 0, fmt.Errorf("span driver: %w", err)
		}
		total.merge(t)
	}
	return total, cpu, nil
}

// spanFidelity checks that the span driver reproduced the product
// driver's virtual outcome exactly (sequential workloads only).
func spanFidelity(win *window, spans *spanTally) []string {
	if win.storm == nil {
		if !slices.Equal(win.setups, spans.setups) {
			return []string{"span driver setup times differ from the product driver's"}
		}
		return nil
	}
	var bad []string
	for c := range win.storm.Class {
		cr := win.storm.Class[c]
		got := spans.outcome[c]
		if got != [3]int{cr.Registered, cr.Shed, cr.Failed} ||
			!slices.Equal(cr.SetupTimes.Samples(), spans.byClass[c]) {
			bad = append(bad, fmt.Sprintf("span driver %s outcome %v differs from the product's [%d %d %d]",
				sbi.Priority(c), got, cr.Registered, cr.Shed, cr.Failed))
		}
	}
	return bad
}

// runProfiles runs the attribution windows on smaller same-seed slices.
// Closed loop: the first half of the window under the CPU profile, the
// second half under the allocation profile. Storm: a storm cannot be cut
// in halves without changing it, so each profile gets its own.
func runProfiles(ctx context.Context, w *workload, seed uint64) (cpu, allocs map[string]int64, allocRegs int, err error) {
	if w.storm {
		storm := func(cpuProfile bool) (map[string]int64, int, error) {
			r, err := setup(ctx, w, seed, profileArrivals)
			if err != nil {
				return nil, 0, err
			}
			defer r.close()
			return profiled(cpuProfile, func() (int, error) {
				res, err := stormOnce(ctx, r, r.stormDevices(nil))
				if err != nil {
					return 0, err
				}
				return res.TotalRegistered(), nil
			})
		}
		if cpu, _, err = storm(true); err != nil {
			return nil, nil, 0, err
		}
		allocs, allocRegs, err = storm(false)
		return cpu, allocs, allocRegs, err
	}

	r, err := setup(ctx, w, seed, profileUEs)
	if err != nil {
		return nil, nil, 0, err
	}
	defer r.close()
	register := func(devices []*ue.UE) func() (int, error) {
		return func() (int, error) {
			res, err := r.slice().GNB.RegisterManyWith(ctx, r.massOptions(devices, nil))
			if err != nil {
				return 0, err
			}
			return res.Registered, nil
		}
	}
	devs := r.devices[warmupUEs:]
	half := len(devs) / 2
	if cpu, _, err = profiled(true, register(devs[:half])); err != nil {
		return nil, nil, 0, err
	}
	allocs, allocRegs, err = profiled(false, register(devs[half:]))
	return cpu, allocs, allocRegs, err
}

// profiled runs f under a sampled CPU profile (cpuProfile) or an exact
// allocation profile, and returns the profile by layer and f's
// registration count.
func profiled(cpuProfile bool, f func() (int, error)) (map[string]int64, int, error) {
	if !cpuProfile {
		p := startAllocProfile()
		regs, err := f()
		return p.stop(), regs, err
	}
	p, err := startCPUProfile()
	if err != nil {
		return nil, 0, err
	}
	regs, ferr := f()
	byLayer, err := p.stop()
	if ferr != nil {
		return nil, 0, ferr
	}
	return byLayer, regs, err
}
