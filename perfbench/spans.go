package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"shield5g/internal/admission"
	"shield5g/internal/deploy"
	"shield5g/internal/paka"
	"shield5g/internal/sbi"
	"shield5g/internal/simclock"
	"shield5g/internal/ue"
)

// The span driver is the traced run's registration loop. It makes the
// same calls, in the same order, as the gNB's RegisterUE/ReRegisterUE and
// its NAS relay, but from the benchmark's own code, so it can time each
// call into the UE and AMF layers. Everything below the AMF's N2 entry
// points (AUSF, UDM, SBI, P-AKA modules) runs inside the amf span. For
// sequential workloads the traced run checks that the span driver
// reproduces the product driver's virtual setup times exactly.

// maxNASRounds mirrors the gNB's bound on one registration exchange.
const maxNASRounds = 12

// spanTally accumulates one worker's spans.
type spanTally struct {
	regs, attempts             int
	ueWall, amfWall            time.Duration
	ueVirt, amfVirt, radioVirt simclock.Cycles
	rounds                     int
	// setups lists the virtual setup time of every registration in order;
	// byClass splits them by storm priority class.
	setups  []time.Duration
	byClass [3][]time.Duration
	outcome [3][3]int // [class][registered, shed, failed]
}

func (t *spanTally) merge(o *spanTally) {
	t.regs += o.regs
	t.attempts += o.attempts
	t.ueWall += o.ueWall
	t.amfWall += o.amfWall
	t.ueVirt += o.ueVirt
	t.amfVirt += o.amfVirt
	t.radioVirt += o.radioVirt
	t.rounds += o.rounds
	t.setups = append(t.setups, o.setups...)
	for c := range t.byClass {
		t.byClass[c] = append(t.byClass[c], o.byClass[c]...)
		for k := range t.outcome[c] {
			t.outcome[c][k] += o.outcome[c][k]
		}
	}
}

// spanDriver registers devices on one slice, allocating RAN UE IDs from a
// range the product driver never reaches.
type spanDriver struct {
	s       *deploy.Slice
	ranUEID uint64
	mu      sync.Mutex
}

func newSpanDriver(s *deploy.Slice) *spanDriver {
	return &spanDriver{s: s, ranUEID: 1 << 40}
}

func (d *spanDriver) nextRANUE() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ranUEID++
	return d.ranUEID
}

// radio charges one access-side NAS round trip exactly as the gNB does.
func (d *spanDriver) radio(ctx context.Context, t *spanTally) {
	env := d.s.Env
	c := env.JitterFor(ctx).Scale(d.s.GNB.Radio().RTTCycles, 0.1)
	env.Charge(ctx, c)
	t.radioVirt += c
	t.rounds++
}

// register runs one registration (a mobility re-registration when the
// device holds a GUTI and reattach is set) with every UE and AMF call
// timed. ctx must carry a fresh request account.
func (d *spanDriver) register(ctx context.Context, device *ue.UE, reattach bool, t *spanTally) (time.Duration, error) {
	g := d.s.GNB
	acct := simclock.AccountFrom(ctx)

	ueCall := func(f func() error) error {
		v0, w0 := acct.Total(), time.Now()
		err := f()
		t.ueWall += time.Since(w0)
		t.ueVirt += acct.Total() - v0
		return err
	}
	amfCall := func(f func() error) error {
		v0, w0 := acct.Total(), time.Now()
		err := f()
		t.amfWall += time.Since(w0)
		t.amfVirt += acct.Total() - v0
		return err
	}

	if err := ueCall(func() error { return device.DetectNetwork(g.BroadcastPLMN()) }); err != nil {
		return 0, err
	}
	start := acct.Total()
	ranUEID := d.nextRANUE()
	a := d.s.Shards[g.ShardOf(device.SUPIString())].AMF

	var uplink, downlink []byte
	err := ueCall(func() (err error) {
		if reattach {
			uplink, err = device.BuildReRegistrationRequest(ctx, a.ServingNetworkName())
		} else {
			uplink, err = device.BuildRegistrationRequest(ctx, a.ServingNetworkName())
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	d.radio(ctx, t)
	if err := amfCall(func() (err error) {
		downlink, err = a.HandleInitialUE(ctx, ranUEID, uplink)
		return err
	}); err != nil {
		return 0, fmt.Errorf("initial UE message: %w", err)
	}
	for round := 0; round < maxNASRounds; round++ {
		var up []byte
		var done bool
		if err := ueCall(func() (err error) {
			up, done, err = device.HandleDownlinkNAS(ctx, downlink)
			return err
		}); err != nil {
			return 0, fmt.Errorf("UE NAS handling: %w", err)
		}
		if done && up == nil {
			break
		}
		if up == nil {
			return 0, errors.New("UE stalled without uplink")
		}
		d.radio(ctx, t)
		if err := amfCall(func() (err error) {
			downlink, err = a.HandleUplinkNAS(ctx, ranUEID, up)
			return err
		}); err != nil {
			return 0, fmt.Errorf("uplink NAS: %w", err)
		}
		if downlink == nil || done {
			break
		}
	}
	if _, ok := a.SUPIOf(ranUEID); !ok {
		return 0, errors.New("registration did not complete")
	}
	return d.s.Env.Model.Duration(acct.Total() - start), nil
}

// closedLoop mirrors RegisterManyWith for one driver call: worker w of P
// handles indices i%P == w in order, on its own jitter stream and
// keep-alive connection, each registration on a fresh account.
func (d *spanDriver) closedLoop(ctx context.Context, w *workload, devices []*ue.UE) (*spanTally, error) {
	workers := w.parallel
	if workers > len(devices) {
		workers = len(devices)
	}
	if workers < 1 {
		workers = 1
	}
	tallies := make([]spanTally, workers)
	errs := make([]error, workers)
	work := func(wk int) {
		base := ctx
		if workers > 1 {
			base = simclock.WithJitter(base, d.s.Env.Jitter.Stream(uint64(wk)+1))
		}
		if w.batch > 0 {
			base = paka.WithConnection(base, uint64(wk)+1, w.batch)
		}
		if w.switchless {
			base = paka.WithSwitchless(base)
		}
		t := &tallies[wk]
		for i := wk; i < len(devices); i += workers {
			var acct simclock.Account
			setupTime, err := d.register(simclock.WithAccount(base, &acct), devices[i], false, t)
			t.attempts++
			if err != nil {
				errs[wk] = err
				return
			}
			t.regs++
			t.setups = append(t.setups, setupTime)
		}
	}
	if workers == 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				work(wk)
			}(wk)
		}
		wg.Wait()
	}
	total := &spanTally{}
	for wk := range tallies {
		total.merge(&tallies[wk])
	}
	return total, errors.Join(errs...)
}

// storm mirrors RunStorm: each arrival stamped with its planned virtual
// time, re-attach devices re-registering on their GUTI, one attempt each.
func (d *spanDriver) storm(ctx context.Context, r *rig) (*spanTally, error) {
	t := &spanTally{}
	ctx = admission.WithSource(ctx, "gnb-1")
	base := d.s.Env.Clock.Elapsed()
	next := r.stormDevices(nil)
	for _, ev := range r.plan.Events {
		device, err := next(ev)
		if err != nil {
			return nil, err
		}
		var acct simclock.Account
		sctx := simclock.WithAccount(simclock.WithArrival(ctx, base+ev.At), &acct)
		_, hasGUTI := device.GUTI()
		setupTime, err := d.register(sctx, device, hasGUTI, t)
		t.attempts++
		switch {
		case err == nil:
			t.regs++
			t.setups = append(t.setups, setupTime)
			t.byClass[ev.Class] = append(t.byClass[ev.Class], setupTime)
			t.outcome[ev.Class][0]++
		case isShed(err):
			t.outcome[ev.Class][1]++
		default:
			t.outcome[ev.Class][2]++
		}
	}
	return t, nil
}

// isShed reports an overload rejection, classified as RunStorm does: 503
// OVERLOAD anywhere in the chain, or a breaker that overload opened.
func isShed(err error) bool {
	var pd *sbi.ProblemDetails
	return errors.As(err, &pd) && (pd.Cause == sbi.CauseOverload || pd.Cause == sbi.CauseCircuitOpen)
}
