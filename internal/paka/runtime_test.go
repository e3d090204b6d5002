package paka

import (
	"context"
	"errors"
	"sort"
	"sync"
	"testing"

	"shield5g/internal/costmodel"
	"shield5g/internal/hmee/gramine"
	"shield5g/internal/simclock"
)

// nopCall is a call that charges nothing.
var nopCall = callFunc(func(Exec) error { return nil })

// TestNativeRuntimeServeShutdownRace drives concurrent requests against a
// runtime being shut down (run under -race): every outcome must be either
// a clean Breakdown or errStopped, never a torn state or a data race.
func TestNativeRuntimeServeShutdownRace(t *testing.T) {
	env := costmodel.NewEnv(nil, 11, nil)
	rt := newNativeRuntime(env)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := simclock.WithJitter(context.Background(), simclock.NewJitter(uint64(w)+1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := rt.Serve(ctx, nil, 40, 80, callFunc(func(ex Exec) error {
					ex.Compute(10_000)
					return nil
				}))
				if err != nil && !errors.Is(err, errStopped) {
					t.Errorf("worker %d: unexpected error %v", w, err)
					return
				}
			}
		}(w)
	}
	rt.Shutdown()
	close(stop)
	wg.Wait()

	if _, err := rt.Serve(context.Background(), nil, 10, 10, nopCall); !errors.Is(err, errStopped) {
		t.Fatalf("Serve after Shutdown = %v, want errStopped", err)
	}
	if _, err := rt.OpenSession(context.Background()); !errors.Is(err, errStopped) {
		t.Fatalf("OpenSession after Shutdown = %v, want errStopped", err)
	}
	if err := rt.Do(context.Background(), nopCall); !errors.Is(err, errStopped) {
		t.Fatalf("Do after Shutdown = %v, want errStopped", err)
	}
}

// TestNativeRuntimeWarmupChargedOnce races P cold requests: exactly one
// of them must absorb the first-request warm-up (lazy library loading +
// TLS handshake), never zero, never more than one.
func TestNativeRuntimeWarmupChargedOnce(t *testing.T) {
	env := costmodel.NewEnv(nil, 17, nil)
	rt := newNativeRuntime(env)

	const workers = 8
	totals := make([]simclock.Cycles, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			acct := &simclock.Account{}
			ctx := simclock.WithAccount(context.Background(), acct)
			ctx = simclock.WithJitter(ctx, simclock.NewJitter(uint64(w)+1))
			if _, err := rt.Serve(ctx, nil, 40, 80, nopCall); err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			totals[w] = acct.Total()
		}(w)
	}
	wg.Wait()

	// The warm-up block (2M cycles + the server TLS handshake) dwarfs the
	// jig variance (0–2 extra ~1.4k-cycle syscalls) between warm requests.
	sorted := append([]simclock.Cycles(nil), totals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	threshold := sorted[0] + nativeWarmupCycles/2
	var warmed int
	for _, total := range totals {
		if total > threshold {
			warmed++
		}
	}
	if warmed != 1 {
		t.Fatalf("warm-up charged to %d requests, want exactly 1 (totals %v)", warmed, totals)
	}
}

// TestNativeSessionMirrorsGramineContract checks the native keep-alive
// split: a session request pays only the per-request census, the
// Pre/handshake at open and Post at close — so the native/SGX comparison
// stays fair in batched mode.
func TestNativeSessionMirrorsGramineContract(t *testing.T) {
	env := costmodel.NewEnv(nil, 23, nil)
	rt := newNativeRuntime(env)

	// Warm the runtime outside the measured window.
	if _, err := rt.Serve(context.Background(), nil, 40, 80, nopCall); err != nil {
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
		_, err := rt.Serve(ctx, nil, 40, 80, nopCall)
		return err
	})

	var sess *gramine.Session
	open := measure(func(ctx context.Context) (err error) {
		sess, err = rt.OpenSession(ctx)
		return err
	})
	serve := measure(func(ctx context.Context) error {
		_, err := rt.Serve(ctx, sess, 40, 80, nopCall)
		return err
	})
	closeCost := measure(func(ctx context.Context) error { return sess.Close(ctx) })

	if serve >= full {
		t.Fatalf("session request (%d cycles) not cheaper than full request (%d)", serve, full)
	}
	if open == 0 || closeCost == 0 {
		t.Fatalf("open/close should charge the amortized machinery, got %d/%d", open, closeCost)
	}
	// Identical jitter streams make the split exact: the session path
	// re-arranges the warm full request's charges and adds exactly one
	// per-connection TLS handshake (which the warm full path never pays).
	if got, want := open+serve+closeCost, full+env.Model.TLSHandshakeServer; got != want {
		t.Fatalf("open+serve+close = %d, want full %d + handshake = %d", got, full, want)
	}

	if _, err := rt.Serve(context.Background(), sess, 10, 10, nopCall); !errors.Is(err, gramine.ErrSessionClosed) {
		t.Fatalf("Serve on closed session = %v, want gramine.ErrSessionClosed", err)
	}
}

// TestClosedSessionSentinel pins the one session-closed error every
// runtime returns for a request on a closed keep-alive session.
func TestClosedSessionSentinel(t *testing.T) {
	for _, mode := range inventoryModes() {
		t.Run(mode.name, func(t *testing.T) {
			rt := mode.build(t)
			ctx := context.Background()
			sess, err := rt.OpenSession(ctx)
			if err != nil {
				t.Fatalf("OpenSession: %v", err)
			}
			if err := sess.Close(ctx); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if _, err := rt.Serve(ctx, sess, 10, 10, nopCall); !errors.Is(err, gramine.ErrSessionClosed) {
				t.Fatalf("Serve on closed session = %v, want gramine.ErrSessionClosed", err)
			}
		})
	}
}

// TestNativeDoBatchChargesCaller pins the Do/DoBatch account contract.
func TestNativeDoBatchChargesCaller(t *testing.T) {
	env := costmodel.NewEnv(nil, 29, nil)
	rt := newNativeRuntime(env)
	acct := &simclock.Account{}
	ctx := simclock.WithAccount(context.Background(), acct)
	if err := rt.DoBatch(ctx, 640, 1280, callFunc(func(ex Exec) error {
		for i := 0; i < 8; i++ {
			ex.Compute(50_000)
		}
		return nil
	})); err != nil {
		t.Fatalf("DoBatch: %v", err)
	}
	if acct.Total() < 8*50_000 {
		t.Fatalf("DoBatch charged %d cycles to caller, want ≥ %d", acct.Total(), 8*50_000)
	}
}
