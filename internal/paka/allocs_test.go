package paka

import (
	"context"
	"testing"

	"shield5g/internal/simclock"
)

// TestSGXServeAllocatesNothing pins the zero-allocation serve path: a warm
// one-shot request and a warm request on a keep-alive session, served
// through the SGX runtime with the module's pooled endpointCall, allocate
// nothing — the call passes through every layer as the pointer it is.
func TestSGXServeAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	h := newHarness(t, 61)
	m := h.module(t, EAMF, SGX)
	acct := &simclock.Account{}
	oneShot := simclock.WithAccount(context.Background(), acct)
	// A batch this large never recycles the session inside the window.
	keepAlive := WithConnection(oneShot, 1, 1<<30)
	handler := func(context.Context, Exec, []byte) ([]byte, error) { return nil, nil }

	serve := func(ctx context.Context) {
		c := endpointCallPool.Get().(*endpointCall)
		c.m, c.ctx, c.handler = m, ctx, handler
		_, err := m.serve(ctx, m.profile.InBytes, m.profile.OutBytes, c)
		*c = endpointCall{}
		endpointCallPool.Put(c)
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	}
	for _, tc := range []struct {
		name string
		ctx  context.Context
	}{{"one-shot", oneShot}, {"session", keepAlive}} {
		serve(tc.ctx) // warm the instance, the session and the pools
		if n := testing.AllocsPerRun(200, func() { serve(tc.ctx) }); n != 0 {
			t.Errorf("%s: %.1f allocs per warm request, want 0", tc.name, n)
		}
	}
}
