package paka

import (
	"context"

	"shield5g/internal/hmee/gramine"
	"shield5g/internal/hmee/sgx"
)

// The serve-path inventory (inventory_test.go) reaches the runtime API only
// through the adapters below, so the inventory itself stays the same
// contract whatever shape the entry points take.

type inventorySession = *gramine.Session

// callFunc adapts a test body to Call.
type callFunc func(Exec) error

func (f callFunc) Run(ex Exec) error { return f(ex) }

func inventoryServe(ctx context.Context, rt Runtime, s inventorySession, in, out int, h func(Exec) error) (Breakdown, error) {
	return rt.Serve(ctx, s, in, out, callFunc(h))
}

func inventoryOpen(ctx context.Context, rt Runtime) (inventorySession, error) {
	return rt.OpenSession(ctx)
}

func inventoryClose(ctx context.Context, s inventorySession) error { return s.Close(ctx) }

func inventoryDo(ctx context.Context, rt Runtime, h func(Exec) error) error {
	return rt.Do(ctx, callFunc(h))
}

func inventoryDoBatch(ctx context.Context, rt Runtime, argBytes, retBytes int, h func(Exec) error) error {
	return rt.DoBatch(ctx, argBytes, retBytes, callFunc(h))
}

// inventoryRing snapshots the runtime's switchless ring counters; ok is
// false when the runtime has no ring.
func inventoryRing(rt Runtime) (st sgx.RingStats, ok bool) {
	if inst, isSGX := rt.(*gramine.Instance); isSGX && inst.Switchless() {
		return inst.RingStats(), true
	}
	return sgx.RingStats{}, false
}
