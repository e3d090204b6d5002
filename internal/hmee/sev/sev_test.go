package sev

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"shield5g/internal/costmodel"
	"shield5g/internal/hmee/gramine"
	"shield5g/internal/simclock"
)

// callFunc adapts a test body to gramine.Call.
type callFunc func(gramine.Exec) error

func (f callFunc) Run(ex gramine.Exec) error { return f(ex) }

// nopCall is a call that charges nothing.
var nopCall = callFunc(func(gramine.Exec) error { return nil })

func testMachine(t *testing.T) *Machine {
	t.Helper()
	env := costmodel.NewEnv(nil, 3, nil)
	m, err := Launch(context.Background(), env, Config{Name: "eudm-vm", AppImageBytes: 2_620_000_000})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	t.Cleanup(m.Stop)
	return m
}

func TestLaunchValidation(t *testing.T) {
	env := costmodel.NewEnv(nil, 3, nil)
	if _, err := Launch(context.Background(), nil, Config{Name: "x"}); err == nil {
		t.Fatal("nil env accepted")
	}
	if _, err := Launch(context.Background(), env, Config{}); err == nil {
		t.Fatal("unnamed machine accepted")
	}
}

func TestLaunchFasterThanEnclaveBuild(t *testing.T) {
	m := testMachine(t)
	d := m.LoadDuration()
	// SEV needs no per-page EADD/EEXTEND or GSC hashing: launch is
	// seconds, not the SGX near-minute.
	if d < time.Second || d > 20*time.Second {
		t.Fatalf("load duration = %v, want a few seconds", d)
	}
}

func TestLaunchChargesAccount(t *testing.T) {
	env := costmodel.NewEnv(nil, 3, nil)
	var acct simclock.Account
	ctx := simclock.WithAccount(context.Background(), &acct)
	m, err := Launch(ctx, env, Config{Name: "vm", AppImageBytes: 1})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	defer m.Stop()
	if acct.Total() == 0 {
		t.Fatal("launch charged nothing")
	}
}

func TestServeRequestNoTransitionsFewVMExits(t *testing.T) {
	m := testMachine(t)
	if _, err := m.Serve(context.Background(), nil, 40, 80, nopCall); err != nil {
		t.Fatalf("warm Serve: %v", err)
	}
	before := m.VMExits()
	bd, err := m.Serve(context.Background(), nil, 40, 80, callFunc(func(ex gramine.Exec) error {
		ex.Compute(100_000)
		ex.Touch(4096)
		return nil
	}))
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	exits := m.VMExits() - before
	if exits != vmExitsPerRequest {
		t.Fatalf("VM exits per request = %d, want %d", exits, vmExitsPerRequest)
	}
	if bd.Functional == 0 || bd.Functional >= bd.Total || bd.Total >= bd.ServerSide {
		t.Fatalf("breakdown nesting violated: %+v", bd)
	}
}

// TestSessionMirrorsContainerContract pins the SEV keep-alive split, the
// same one the plain container uses: the accept machinery and TLS
// handshake at open, the teardown at close, and only the per-request
// census — with its own arrival and departure VM exits — per pipelined
// request.
func TestSessionMirrorsContainerContract(t *testing.T) {
	m := testMachine(t)
	if _, err := m.Serve(context.Background(), nil, 40, 80, nopCall); err != nil {
		t.Fatalf("warm: %v", err)
	}
	measure := func(f func(ctx context.Context) error) simclock.Cycles {
		acct := &simclock.Account{}
		ctx := simclock.WithAccount(context.Background(), acct)
		ctx = simclock.WithJitter(ctx, simclock.NewJitter(5))
		if err := f(ctx); err != nil {
			t.Fatalf("measure: %v", err)
		}
		return acct.Total()
	}

	full := measure(func(ctx context.Context) error {
		_, err := m.Serve(ctx, nil, 40, 80, nopCall)
		return err
	})
	var sess *gramine.Session
	open := measure(func(ctx context.Context) (err error) {
		sess, err = m.OpenSession(ctx)
		return err
	})
	before := m.VMExits()
	serve := measure(func(ctx context.Context) error {
		_, err := m.Serve(ctx, sess, 40, 80, nopCall)
		return err
	})
	if exits := m.VMExits() - before; exits != vmExitsPerRequest {
		t.Fatalf("VM exits per pipelined request = %d, want %d", exits, vmExitsPerRequest)
	}
	closeCost := measure(func(ctx context.Context) error { return sess.Close(ctx) })

	perSyscall := m.env.Model.SyscallNative + 32*m.env.Model.CopyPerByte
	if got, want := full-serve, simclock.Cycles(m.syscalls.Pre+m.syscalls.Post)*perSyscall; got != want {
		t.Fatalf("one-shot - session request = %d cycles, want exactly the Pre+Post machinery %d", got, want)
	}
	// Identical jitter streams make the split exact: the session path
	// re-arranges the warm one-shot's charges and adds exactly one
	// per-connection TLS handshake.
	if got, want := open+serve+closeCost, full+m.env.Model.TLSHandshakeServer; got != want {
		t.Fatalf("open+serve+close = %d, want one-shot %d + handshake = %d", got, full, want)
	}

	if err := sess.Close(context.Background()); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestServeRequestHandlerError(t *testing.T) {
	m := testMachine(t)
	sentinel := errors.New("boom")
	if _, err := m.Serve(context.Background(), nil, 1, 1, callFunc(func(ex gramine.Exec) error { return sentinel })); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestInitialRequestSlower(t *testing.T) {
	m := testMachine(t)
	serve := func() simclock.Cycles {
		var acct simclock.Account
		ctx := simclock.WithAccount(context.Background(), &acct)
		if _, err := m.Serve(ctx, nil, 40, 80, nopCall); err != nil {
			t.Fatalf("Serve: %v", err)
		}
		return acct.Total()
	}
	first := serve()
	if !m.Warm() {
		t.Fatal("not warm")
	}
	second := serve()
	if first <= second {
		t.Fatal("initial request not slower")
	}
}

func TestTCBIncludesGuestStack(t *testing.T) {
	m := testMachine(t)
	if m.TCBBytes() <= m.cfg.AppImageBytes {
		t.Fatal("TCB does not include guest kernel/userland")
	}
}

func TestSecretsAndIntrospection(t *testing.T) {
	m := testMachine(t)
	secret := []byte("subscriber-key-material")
	if err := m.Do(context.Background(), callFunc(func(ex gramine.Exec) error {
		ex.StoreSecret("k", secret)
		got, ok := ex.LoadSecret("k")
		if !ok || !bytes.Equal(got, secret) {
			t.Error("in-guest read failed")
		}
		if _, ok := ex.LoadSecret("missing"); ok {
			t.Error("missing secret found")
		}
		return nil
	})); err != nil {
		t.Fatalf("Do: %v", err)
	}
	view, ok := m.Introspect("k")
	if !ok {
		t.Fatal("Introspect found nothing")
	}
	if bytes.Equal(view, secret) || bytes.Contains(view, []byte("subscriber")) {
		t.Fatal("host view leaked plaintext")
	}
	if _, ok := m.Introspect("missing"); ok {
		t.Fatal("Introspect invented a region")
	}
	m.Stop()
	if _, ok := m.Introspect("k"); ok {
		t.Fatal("secret survived teardown")
	}
}

func TestStoppedMachineRejectsUse(t *testing.T) {
	m := testMachine(t)
	m.Stop()
	if _, err := m.Serve(context.Background(), nil, 1, 1, nopCall); !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v", err)
	}
	if err := m.Do(context.Background(), nopCall); !errors.Is(err, ErrStopped) {
		t.Fatalf("Do err = %v", err)
	}
	if _, err := m.GenerateReport([64]byte{}); !errors.Is(err, ErrStopped) {
		t.Fatalf("report err = %v", err)
	}
}

func TestAttestationReport(t *testing.T) {
	m := testMachine(t)
	var data [64]byte
	copy(data[:], "nonce")
	r, err := m.GenerateReport(data)
	if err != nil {
		t.Fatalf("GenerateReport: %v", err)
	}
	if err := VerifyReport(m.SigningKey(), r); err != nil {
		t.Fatalf("VerifyReport: %v", err)
	}
	r.MachineName = "impostor"
	if err := VerifyReport(m.SigningKey(), r); err == nil {
		t.Fatal("tampered report verified")
	}
	if err := VerifyReport(m.SigningKey(), nil); err == nil {
		t.Fatal("nil report verified")
	}
}

func TestMeasurementDeterministic(t *testing.T) {
	env := costmodel.NewEnv(nil, 3, nil)
	a, err := Launch(context.Background(), env, Config{Name: "vm", AppImageBytes: 7})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	defer a.Stop()
	b, err := Launch(context.Background(), env, Config{Name: "vm", AppImageBytes: 7})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	defer b.Stop()
	if a.Measurement() != b.Measurement() {
		t.Fatal("same config, different measurements")
	}
	c, err := Launch(context.Background(), env, Config{Name: "vm2", AppImageBytes: 7})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	defer c.Stop()
	if a.Measurement() == c.Measurement() {
		t.Fatal("different config, same measurement")
	}
	if a.Name() != "vm" {
		t.Fatal("name accessor wrong")
	}
}
