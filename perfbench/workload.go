package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"shield5g/internal/admission"
	"shield5g/internal/chaos"
	"shield5g/internal/core"
	"shield5g/internal/crypto/milenage"
	"shield5g/internal/crypto/suci"
	"shield5g/internal/deploy"
	"shield5g/internal/gnb"
	"shield5g/internal/paka"
	"shield5g/internal/sbi"
	"shield5g/internal/simclock"
	"shield5g/internal/ue"
)

// workload is one benchmark input set: a slice configuration plus the way
// the product's own driver is run against it.
type workload struct {
	name string
	// slice is the deployment, minus the per-run seed and entropy.
	slice deploy.SliceConfig
	// parallel, batch and switchless are the MassOptions of the
	// closed-loop workloads.
	parallel   int
	batch      int
	switchless bool
	// prewarm fills every subscriber's AV pool during setup.
	prewarm bool
	// storm replays an open-loop storm plan instead of the closed loop.
	storm bool
	// perSecond is the measured work per --seconds of run length: UEs
	// registered (closed loop) or storm arrivals (open loop). It is fixed,
	// not timed, so a seed always yields the same inputs.
	perSecond int
	// setups is how often a run deploys and provisions the workload;
	// setup_s is the median.
	setups int
}

// The closed-loop window runs warmupUEs registrations untimed, then its
// measured UEs in windowChunks driver calls: the rate metrics are medians
// over the calls, and each call is one segment of the wall percentiles,
// with at least 1000 samples at ten seconds of run length.
const (
	warmupUEs    = 200
	windowChunks = 20
)

// Storm shape, as in the product's storm experiment: arrivals at 10x the
// UDM's modelled service rate, 5% emergency and 60% re-attach.
const (
	stormBottleneckCycles = 3_600_000
	stormFactor           = 10
	stormEmergencyFrac    = 0.05
	stormReattachFrac     = 0.60
	stormJitterFrac       = 0.2
	// stormMinArrivals puts more than 1000 emergency registrations in the
	// plan, so emergency_p99_ms has at least ten samples beyond it.
	stormMinArrivals = 24_000
)

func workloads() map[string]*workload {
	limiter := admission.DefaultConfig(nil)
	return map[string]*workload{
		// The paper's configuration: every layer of the enclave boundary,
		// JSON SBI and a TLS handshake per module request.
		"classic": {
			name:      "classic",
			slice:     deploy.SliceConfig{Isolation: paka.SGX},
			parallel:  1,
			perSecond: 2_500,
			setups:    3,
		},
		// The section-9 gated fast path: switchless rings, binary SBI,
		// keep-alive batches, a prewarmed AV pool and four replicas.
		"fastpath": {
			name: "fastpath",
			slice: deploy.SliceConfig{
				Isolation: paka.SGX, AVPoolDepth: 8, BinarySBI: true,
				Switchless: true, Replicas: 4,
			},
			parallel:   2,
			batch:      8,
			switchless: true,
			prewarm:    true,
			perSecond:  3_000,
			setups:     3,
		},
		// A 10x signaling storm against the limiter-on slice: admission,
		// load meters, throttling, retries and breakers.
		"storm10x": {
			name: "storm10x",
			slice: deploy.SliceConfig{
				Isolation: paka.SGX, AVPoolDepth: 8,
				Overload: &deploy.OverloadProfile{Shed: true, Admission: &limiter, Throttle: true},
			},
			storm:     true,
			perSecond: 2_400,
			setups:    2,
		},
	}
}

// size is the measured work of a run of the given length.
func (w *workload) size(seconds int) int {
	n := w.perSecond * seconds
	if w.storm && n < stormMinArrivals {
		n = stormMinArrivals
	}
	return n
}

// rig is one deployed and provisioned slice, ready for its timed window.
type rig struct {
	w  *workload
	tb *core.Testbed
	// devices is the closed-loop population: warm-up devices first.
	devices []*ue.UE
	// plan and byClass are the storm's arrivals and per-class devices.
	plan    *chaos.StormPlan
	byClass [3][]*ue.UE
	// setupWall and setupCPU span deploy to window start; setupAllocs
	// counts the heap allocations over the same span.
	setupWall, setupCPU time.Duration
	setupAllocs         uint64
}

func (r *rig) slice() *deploy.Slice { return r.tb.Slice }

func (r *rig) close() { r.tb.Close() }

// setup deploys the workload's slice through the public core API,
// provisions its subscribers from the seed, and does every piece of work
// that must stay out of the timed window: AV-pool prewarm, the storm's
// re-attach pre-registration and the closed-loop warm-up.
func setup(ctx context.Context, w *workload, seed uint64, n int) (*rig, error) {
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start, cpu0 := time.Now(), processCPU()

	cfg := w.slice
	cfg.Seed = seed
	cfg.Entropy = newEntropy(seed)
	tb, err := core.NewTestbed(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("deploy %s: %w", w.name, err)
	}
	r := &rig{w: w, tb: tb}
	if tb.Slice.Env.Realizer != nil {
		r.close()
		return nil, fmt.Errorf("%s: slice has a realtime Realizer; wall time would be modelled busy-wait", w.name)
	}
	in := newInputs(seed)
	if w.storm {
		err = r.setupStorm(ctx, in, seed, n)
	} else {
		err = r.setupClosedLoop(ctx, in, n)
	}
	if err != nil {
		r.close()
		return nil, err
	}

	r.setupWall, r.setupCPU = time.Since(start), processCPU()-cpu0
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	r.setupAllocs = m1.Mallocs - m0.Mallocs
	return r, nil
}

// provision installs one generated subscriber and returns its device.
func (r *rig) provision(ctx context.Context, sub subscriber) (*ue.UE, error) {
	s := r.slice()
	supi := suci.SUPI{MCC: s.Config.MCC, MNC: s.Config.MNC, MSIN: sub.MSIN}
	opc, err := milenage.ComputeOPc(sub.K, make([]byte, 16))
	if err != nil {
		return nil, err
	}
	if err := s.ProvisionSubscriber(ctx, supi, sub.K, opc); err != nil {
		return nil, fmt.Errorf("provision %s: %w", supi, err)
	}
	return ue.New(ue.Config{
		SUPI:                 supi,
		K:                    sub.K,
		OPc:                  opc,
		HomeNetworkPublicKey: s.HomeNetworkKey.PublicKey(),
		HomeNetworkKeyID:     s.HomeNetworkKey.ID,
		Env:                  s.Env,
	})
}

func (r *rig) setupClosedLoop(ctx context.Context, in *inputs, n int) error {
	subs := in.subscribers(warmupUEs + n)
	r.devices = make([]*ue.UE, len(subs))
	supis := make([]string, len(subs))
	for i, sub := range subs {
		d, err := r.provision(ctx, sub)
		if err != nil {
			return err
		}
		r.devices[i] = d
		supis[i] = d.SUPIString()
	}
	if r.w.prewarm {
		if err := r.slice().PrewarmAVPool(ctx, supis); err != nil {
			return fmt.Errorf("prewarm: %w", err)
		}
	}
	res, err := r.slice().GNB.RegisterManyWith(ctx, r.massOptions(r.devices[:warmupUEs], nil))
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if res.Failed > 0 {
		return fmt.Errorf("warm-up: %d registrations failed", res.Failed)
	}
	return nil
}

func (r *rig) setupStorm(ctx context.Context, in *inputs, seed uint64, n int) error {
	plan, err := chaos.NewStormPlan(seed, chaos.StormSpec{
		N:             n,
		EmergencyFrac: stormEmergencyFrac,
		ReattachFrac:  stormReattachFrac,
		Spacing:       simclock.Cycles(stormBottleneckCycles / stormFactor),
		JitterFrac:    stormJitterFrac,
	})
	if err != nil {
		return err
	}
	r.plan = plan
	subs := in.subscribers(len(plan.Events))
	for i, ev := range plan.Events {
		d, err := r.provision(ctx, subs[i])
		if err != nil {
			return err
		}
		switch ev.Class {
		case sbi.PriorityEmergency:
			d.SetEmergency(true)
		case sbi.PriorityReattach:
			// The mass disconnect is abrupt: the re-attach population
			// registered before the storm and still holds its GUTIs.
			if _, err := r.slice().GNB.RegisterUE(ctx, d); err != nil {
				return fmt.Errorf("pre-register re-attach device %d: %w", i, err)
			}
		}
		r.byClass[ev.Class] = append(r.byClass[ev.Class], d)
	}
	return nil
}

// massOptions runs devices through the product's mass driver; tick, when
// set, is called from NewUE with the calling worker's index.
func (r *rig) massOptions(devices []*ue.UE, tick func(worker int)) gnb.MassOptions {
	p := r.w.parallel
	if p > len(devices) {
		p = len(devices)
	}
	return gnb.MassOptions{
		N: len(devices),
		NewUE: func(i int) (*ue.UE, error) {
			if tick != nil {
				tick(i % p)
			}
			return devices[i], nil
		},
		Parallelism: r.w.parallel,
		BatchSize:   r.w.batch,
		Switchless:  r.w.switchless,
	}
}

// stormDevices maps plan events onto the per-class populations in order;
// tick, when set, is called on every arrival.
func (r *rig) stormDevices(tick func()) func(ev chaos.StormEvent) (*ue.UE, error) {
	var next [3]int
	return func(ev chaos.StormEvent) (*ue.UE, error) {
		if tick != nil {
			tick()
		}
		i := next[ev.Class]
		next[ev.Class]++
		return r.byClass[ev.Class][i], nil
	}
}

// registeredUEs sums RegisteredUEs over every shard's AMF.
func (r *rig) registeredUEs() int {
	n := 0
	for _, sh := range r.slice().Shards {
		n += sh.AMF.RegisteredUEs()
	}
	return n
}
