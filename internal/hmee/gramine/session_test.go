package gramine

import (
	"context"
	"errors"
	"testing"

	"shield5g/internal/hmee/sgx"
	"shield5g/internal/simclock"
)

// callFunc adapts a test body to Call.
type callFunc func(Exec) error

func (f callFunc) Run(ex Exec) error { return f(ex) }

// nopCall is a call that charges nothing.
var nopCall = callFunc(func(Exec) error { return nil })

func launchTest(t *testing.T) *Instance {
	t.Helper()
	inst, err := Launch(context.Background(), testPlatform(t), testShielded(t))
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	t.Cleanup(inst.Shutdown)
	return inst
}

// measuredCtx returns a ctx carrying a dedicated account and a fresh
// jitter stream from the given seed, so two requests on different
// instances make bit-identical stochastic draws.
func measuredCtx(seed uint64) (context.Context, *simclock.Account) {
	acct := &simclock.Account{}
	ctx := simclock.WithAccount(context.Background(), acct)
	ctx = simclock.WithJitter(ctx, simclock.NewJitter(seed))
	return ctx, acct
}

// TestServeOnSessionGoldenBatchOfOne pins the amortization contract: a
// warm request served on a keep-alive session is bit-identical to a warm
// one-shot Serve in its L_F and L_T windows, and its ServerSide omits
// exactly the Pre+Post machinery (81 proxied syscalls at 16 bytes each
// way under the default profile), nothing more.
func TestServeOnSessionGoldenBatchOfOne(t *testing.T) {
	instA := launchTest(t)
	instB := launchTest(t)

	handler := callFunc(func(th Exec) error {
		th.Compute(150_000)
		th.Touch(4096)
		return nil
	})

	// Warm both instances so neither measured request pays the lazy
	// warm-up; B's session also absorbs the per-connection handshake.
	if _, err := instA.Serve(context.Background(), nil, 40, 80, handler); err != nil {
		t.Fatalf("warm Serve: %v", err)
	}
	sess, err := instB.OpenSession(context.Background())
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}

	ctxA, acctA := measuredCtx(99)
	bdA, err := instA.Serve(ctxA, nil, 40, 80, handler)
	if err != nil {
		t.Fatalf("measured Serve: %v", err)
	}
	ctxB, acctB := measuredCtx(99)
	bdB, err := instB.Serve(ctxB, sess, 40, 80, handler)
	if err != nil {
		t.Fatalf("measured session Serve: %v", err)
	}

	if bdA.Functional != bdB.Functional {
		t.Errorf("Functional: one-shot %d != session %d", bdA.Functional, bdB.Functional)
	}
	if bdA.Total != bdB.Total {
		t.Errorf("Total: one-shot %d != session %d", bdA.Total, bdB.Total)
	}

	m := instA.platform.Model()
	sp := instA.syscalls
	perOCall := m.OCALLRoundTrip() + m.SyscallNative + 2*m.ShieldCost(16)
	wantDelta := simclock.Cycles(sp.Pre+sp.Post) * perOCall
	if got := bdA.ServerSide - bdB.ServerSide; got != wantDelta {
		t.Errorf("ServerSide delta = %d, want exactly Pre+Post machinery %d", got, wantDelta)
	}
	if acctA.Total() != bdA.ServerSide || acctB.Total() != bdB.ServerSide {
		t.Errorf("accounts (%d, %d) disagree with ServerSide (%d, %d)",
			acctA.Total(), acctB.Total(), bdA.ServerSide, bdB.ServerSide)
	}
}

// TestSessionAmortizesTransitions checks the headline effect: a batch of
// pipelined requests makes far fewer enclave transitions than the same
// batch served cold, and each pipelined request stays within the
// non-amortized census (Read+InHandler+Write plus 0–2 readiness
// wake-ups).
func TestSessionAmortizesTransitions(t *testing.T) {
	inst := launchTest(t)
	ctx := context.Background()
	handler := callFunc(func(th Exec) error { th.Compute(100_000); return nil })
	if _, err := inst.Serve(ctx, nil, 40, 80, handler); err != nil {
		t.Fatalf("warm: %v", err)
	}

	const batch = 8
	before := inst.Stats()
	for k := 0; k < batch; k++ {
		if _, err := inst.Serve(ctx, nil, 40, 80, handler); err != nil {
			t.Fatalf("Serve %d: %v", k, err)
		}
	}
	cold := inst.Stats().Sub(before).EENTER

	sess, err := inst.OpenSession(ctx)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	before = inst.Stats()
	for k := 0; k < batch; k++ {
		reqBefore := inst.Stats()
		if _, err := inst.Serve(ctx, sess, 40, 80, handler); err != nil {
			t.Fatalf("Serve %d: %v", k, err)
		}
		sp := inst.syscalls
		perReq := inst.Stats().Sub(reqBefore).EENTER
		min := uint64(sp.Read + sp.InHandler + sp.Write)
		if perReq < min || perReq > min+2 {
			t.Fatalf("session request %d made %d EENTERs, want %d..%d", k, perReq, min, min+2)
		}
	}
	pipelined := inst.Stats().Sub(before).EENTER
	if err := sess.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	withTeardown := inst.Stats().Sub(before).EENTER

	if float64(withTeardown) > 0.6*float64(cold) {
		t.Errorf("batch of %d: %d transitions on session (+teardown) vs %d cold; want ≥40%% reduction",
			batch, withTeardown, cold)
	}
	t.Logf("batch=%d cold=%d session=%d (+close=%d)", batch, cold, pipelined, withTeardown)
}

func TestSessionClosedAndLifecycleErrors(t *testing.T) {
	inst := launchTest(t)
	ctx := context.Background()
	sess, err := inst.OpenSession(ctx)
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	if _, err := inst.Serve(ctx, sess, 10, 10, nopCall); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Serve on closed session = %v, want ErrSessionClosed", err)
	}
	inst.Shutdown()
	if _, err := inst.OpenSession(ctx); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("OpenSession after Shutdown = %v, want ErrNotRunning", err)
	}
}

// TestDoPinsCallerAccount pins the satellite fix: maintenance work run
// through Do must be charged to the caller's account, same as
// a one-shot Serve.
func TestDoPinsCallerAccount(t *testing.T) {
	inst := launchTest(t)
	acct := &simclock.Account{}
	ctx := simclock.WithAccount(context.Background(), acct)
	before := inst.Stats()
	err := inst.Do(ctx, callFunc(func(th Exec) error {
		th.Compute(250_000)
		th.(*sgx.Thread).OCall(1_000, 16, 16)
		return nil
	}))
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if d := inst.Stats().Sub(before); d.OCALLs != 1 {
		t.Fatalf("Do OCALL delta = %d, want 1", d.OCALLs)
	}
	if acct.Total() < 250_000 {
		t.Fatalf("caller account charged %d cycles, want ≥ the 250k compute", acct.Total())
	}
}

// TestDoBatchOneTransitionPair pins the batch-ECALL contract: K units of
// work inside DoBatch cost K× the compute but exactly one EENTER/EEXIT
// pair (plus whatever OCALLs the body itself makes — none here).
func TestDoBatchOneTransitionPair(t *testing.T) {
	mf := DefaultManifest("/app/eudm-aka")
	mf.MaxThreads = HelperThreads + 2 // spare TCS slot for the batch entry
	si, err := BuildShielded(testImage(), mf, testSignKey(t))
	if err != nil {
		t.Fatalf("BuildShielded: %v", err)
	}
	inst, err := Launch(context.Background(), testPlatform(t), si)
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	defer inst.Shutdown()

	acct := &simclock.Account{}
	ctx := simclock.WithAccount(context.Background(), acct)
	before := inst.Stats()
	const k = 16
	err = inst.DoBatch(ctx, k*64, k*128, callFunc(func(th Exec) error {
		for j := 0; j < k; j++ {
			th.Compute(50_000)
		}
		return nil
	}))
	if err != nil {
		t.Fatalf("DoBatch: %v", err)
	}
	d := inst.Stats().Sub(before)
	if d.EENTER != 1 || d.EEXIT != 1 {
		t.Fatalf("DoBatch transitions = EENTER %d / EEXIT %d, want 1/1", d.EENTER, d.EEXIT)
	}
	if acct.Total() < k*50_000 {
		t.Fatalf("batch charged %d cycles to caller, want ≥ %d", acct.Total(), k*50_000)
	}

	inst.Shutdown()
	if err := inst.DoBatch(ctx, 1, 1, nopCall); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("DoBatch after Shutdown = %v, want ErrNotRunning", err)
	}
}

// TestSessionCrossingFixedAtOpen pins where a session's crossing is
// chosen: at open, from the ctx opt-in. A session opened on the ring
// serves and closes through it even when a later ctx lacks the opt-in,
// and a session opened classically never touches the ring, whatever a
// later ctx asks for.
func TestSessionCrossingFixedAtOpen(t *testing.T) {
	mf := DefaultManifest("/app/eudm-aka")
	mf.SwitchlessECalls = true
	mf.MaxThreads = HelperThreads + 2
	inst := launchWith(t, mf)
	plain := context.Background()
	ring := sgx.WithSwitchless(plain)

	submitted := func() uint64 { return inst.RingStats().Submitted }
	onRing, err := inst.OpenSession(ring)
	if err != nil {
		t.Fatalf("OpenSession(ring): %v", err)
	}
	classic, err := inst.OpenSession(plain)
	if err != nil {
		t.Fatalf("OpenSession(classic): %v", err)
	}
	if got := submitted(); got != 1 {
		t.Fatalf("ring submissions after one ring open = %d, want 1", got)
	}

	before := submitted()
	if _, err := inst.Serve(plain, onRing, 40, 80, nopCall); err != nil {
		t.Fatalf("Serve(ring session, classic ctx): %v", err)
	}
	if err := onRing.Close(plain); err != nil {
		t.Fatalf("Close(ring session): %v", err)
	}
	if got := submitted() - before; got != 2 {
		t.Fatalf("ring session serve+close made %d ring submissions, want 2", got)
	}

	before = submitted()
	st := inst.Stats()
	if _, err := inst.Serve(ring, classic, 40, 80, nopCall); err != nil {
		t.Fatalf("Serve(classic session, ring ctx): %v", err)
	}
	if got := submitted() - before; got != 0 {
		t.Fatalf("classic session serve rode the ring (%d submissions)", got)
	}
	if d := inst.Stats().Sub(st); d.EENTER == 0 {
		t.Fatal("classic session serve made no OCALL transitions")
	}
}
