package paka

import (
	"context"
	"crypto/ed25519"
	"fmt"
	"strings"
	"testing"
	"time"

	"shield5g/internal/costmodel"
	"shield5g/internal/hmee/sgx"
	"shield5g/internal/simclock"
)

// inventoryRow is what one runtime entry charged: the enclave counters it
// moved, the switchless ring counters it moved, the Breakdown triple it
// returned (zero for entries that return none) and the total its request
// account was charged.
type inventoryRow struct {
	EENTER, EEXIT, AEX, OCALLs, ECALLs, PageFaults uint64
	Submitted, Doorbells                           uint64
	Functional, Total, ServerSide                  simclock.Cycles
	Account                                        simclock.Cycles
}

func (r inventoryRow) String() string {
	return fmt.Sprintf("{EENTER: %d, EEXIT: %d, AEX: %d, OCALLs: %d, ECALLs: %d, PageFaults: %d, Submitted: %d, Doorbells: %d, Functional: %d, Total: %d, ServerSide: %d, Account: %d}",
		r.EENTER, r.EEXIT, r.AEX, r.OCALLs, r.ECALLs, r.PageFaults, r.Submitted, r.Doorbells,
		r.Functional, r.Total, r.ServerSide, r.Account)
}

// inventoryMode is one way of deploying a module runtime.
type inventoryMode struct {
	name string
	// switchless attaches the ctx opt-in (WithSwitchless) to every entry.
	switchless bool
	// sessions reports whether the keep-alive entries are part of the
	// inventory for this mode.
	sessions bool
	build    func(t *testing.T) Runtime
}

func inventorySGX(cfg Config) func(t *testing.T) Runtime {
	return func(t *testing.T) Runtime {
		t.Helper()
		p, err := sgx.NewPlatform(sgx.PlatformConfig{Seed: 41})
		if err != nil {
			t.Fatalf("NewPlatform: %v", err)
		}
		cfg.Kind = EUDM
		cfg.Isolation = SGX
		cfg.Platform = p
		cfg.ReserveBatchTCS = true
		cfg.SignKey = ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
		rt, err := buildSGXRuntime(context.Background(), cfg, Profiles()[EUDM])
		if err != nil {
			t.Fatalf("buildSGXRuntime: %v", err)
		}
		t.Cleanup(rt.Shutdown)
		return rt
	}
}

func inventoryModes() []inventoryMode {
	return []inventoryMode{
		{name: "sgx", sessions: true, build: inventorySGX(Config{})},
		{name: "sgx-exitless", sessions: true, build: inventorySGX(Config{Exitless: true})},
		{name: "sgx-usertcp", sessions: true, build: inventorySGX(Config{UserLevelTCP: true})},
		{name: "sgx-switchless", switchless: true, sessions: true, build: inventorySGX(Config{Switchless: true})},
		{name: "sgx-ring-noflag", sessions: true, build: inventorySGX(Config{Switchless: true})},
		{name: "native", sessions: true, build: func(t *testing.T) Runtime {
			rt := newNativeRuntime(costmodel.NewEnv(nil, 43, nil))
			t.Cleanup(rt.Shutdown)
			return rt
		}},
		// SEV keep-alive sessions are left out: their amortization
		// contract is defined by the sev package, not by this inventory.
		{name: "sev", build: func(t *testing.T) Runtime {
			rt, err := newSEVRuntime(context.Background(), costmodel.NewEnv(nil, 47, nil), "inventory-vm", Profiles()[EUDM].ImageBytes)
			if err != nil {
				t.Fatalf("newSEVRuntime: %v", err)
			}
			t.Cleanup(rt.Shutdown)
			return rt
		}},
	}
}

// settleRing waits until a ring-equipped runtime's dispatcher has parked
// after every submission so far. A submission that finds the dispatcher
// parked is picked up only after its own accounting is charged, which
// keeps the charged order — and so every pinned figure — independent of
// goroutine scheduling.
func settleRing(t *testing.T, rt Runtime) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, ok := inventoryRing(rt)
		if !ok || st.Parks >= st.Submitted+1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring dispatcher never parked: %+v", st)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

func inventoryHandler(ex Exec) error {
	ex.Compute(150_000)
	ex.Touch(4096)
	return nil
}

func inventoryBatch(ex Exec) error {
	for k := 0; k < 4; k++ {
		ex.Compute(50_000)
	}
	ex.Touch(2048)
	return nil
}

// runInventory drives every entry of one mode in a fixed order on fresh
// runtimes and returns the rows keyed "mode/entry", plus the key order.
func runInventory(t *testing.T, mode inventoryMode) ([]string, map[string]inventoryRow) {
	t.Helper()
	rows := make(map[string]inventoryRow)
	var order []string
	seed := uint64(1000)
	measure := func(rt Runtime, entry string, f func(ctx context.Context) (Breakdown, error)) {
		t.Helper()
		settleRing(t, rt)
		seed++
		acct := &simclock.Account{}
		ctx := simclock.WithAccount(context.Background(), acct)
		ctx = simclock.WithJitter(ctx, simclock.NewJitter(seed))
		if mode.switchless {
			ctx = WithSwitchless(ctx)
		}
		st0 := rt.Stats()
		rs0, _ := inventoryRing(rt)
		bd, err := f(ctx)
		if err != nil {
			t.Fatalf("%s/%s: %v", mode.name, entry, err)
		}
		st := rt.Stats().Sub(st0)
		rs, _ := inventoryRing(rt)
		key := mode.name + "/" + entry
		order = append(order, key)
		rows[key] = inventoryRow{
			EENTER: st.EENTER, EEXIT: st.EEXIT, AEX: st.AEX, OCALLs: st.OCALLs,
			ECALLs: st.ECALLs, PageFaults: st.PageFaults,
			Submitted: rs.Submitted - rs0.Submitted, Doorbells: rs.Doorbells - rs0.Doorbells,
			Functional: bd.Functional, Total: bd.Total, ServerSide: bd.ServerSide,
			Account: acct.Total(),
		}
	}
	oneShot := func(rt Runtime) func(ctx context.Context) (Breakdown, error) {
		return func(ctx context.Context) (Breakdown, error) {
			return inventoryServe(ctx, rt, nil, 40, 80, inventoryHandler)
		}
	}
	noBreakdown := func(f func(ctx context.Context) error) func(ctx context.Context) (Breakdown, error) {
		return func(ctx context.Context) (Breakdown, error) { return Breakdown{}, f(ctx) }
	}

	rt := mode.build(t)
	measure(rt, "cold-oneshot", oneShot(rt))
	measure(rt, "warm-oneshot", oneShot(rt))
	if mode.sessions {
		var sess inventorySession
		measure(rt, "open", noBreakdown(func(ctx context.Context) (err error) {
			sess, err = inventoryOpen(ctx, rt)
			return err
		}))
		for _, entry := range []string{"serve-1", "serve-2"} {
			measure(rt, entry, func(ctx context.Context) (Breakdown, error) {
				return inventoryServe(ctx, rt, sess, 40, 80, inventoryHandler)
			})
		}
		measure(rt, "close", noBreakdown(func(ctx context.Context) error { return inventoryClose(ctx, sess) }))
	}
	measure(rt, "do", noBreakdown(func(ctx context.Context) error { return inventoryDo(ctx, rt, inventoryHandler) }))
	measure(rt, "dobatch", noBreakdown(func(ctx context.Context) error {
		return inventoryDoBatch(ctx, rt, 4*64, 4*128, inventoryBatch)
	}))

	if mode.sessions {
		// A cold runtime whose first contact is a keep-alive connection.
		cold := mode.build(t)
		var sess inventorySession
		measure(cold, "cold-open", noBreakdown(func(ctx context.Context) (err error) {
			sess, err = inventoryOpen(ctx, cold)
			return err
		}))
		measure(cold, "cold-open-serve", func(ctx context.Context) (Breakdown, error) {
			return inventoryServe(ctx, cold, sess, 40, 80, inventoryHandler)
		})
		measure(cold, "cold-open-close", noBreakdown(func(ctx context.Context) error { return inventoryClose(ctx, sess) }))
	}
	return order, rows
}

// TestServePathInventory is the contract of the module runtimes' serve
// paths: for every isolation mode × entry it pins, under fixed seeds, the
// enclave transitions, AEXs, OCALLs and ECALLs the entry makes, the ring
// submissions and doorbells it pays, its Breakdown windows and the total
// charged to its account. Any refactor of the serve paths must leave every
// row unchanged.
func TestServePathInventory(t *testing.T) {
	var got strings.Builder
	for _, mode := range inventoryModes() {
		order, rows := runInventory(t, mode)
		for _, key := range order {
			fmt.Fprintf(&got, "\t%q: %s,\n", key, rows[key])
			want, ok := inventoryGolden[key]
			if !ok {
				t.Errorf("%s: no golden row", key)
				continue
			}
			if rows[key] != want {
				t.Errorf("%s:\n got %s\nwant %s", key, rows[key], want)
			}
		}
	}
	if len(inventoryGolden) == 0 || t.Failed() {
		t.Logf("measured inventory:\n%s", got.String())
		if len(inventoryGolden) == 0 {
			t.Fatal("empty golden table")
		}
	}
}

// TestServePathInventoryReplays checks the inventory is a stable contract
// at all: two same-seed runs of every mode agree row for row.
func TestServePathInventoryReplays(t *testing.T) {
	for _, mode := range inventoryModes() {
		_, a := runInventory(t, mode)
		_, b := runInventory(t, mode)
		for key, row := range a {
			if b[key] != row {
				t.Errorf("%s: replay diverged:\n%s\n%s", key, row, b[key])
			}
		}
	}
}

var inventoryGolden = map[string]inventoryRow{
	"sgx/cold-oneshot":                {EENTER: 150, EEXIT: 150, AEX: 7, OCALLs: 150, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 201792, Total: 368865, ServerSide: 51697489, Account: 51697489},
	"sgx/warm-oneshot":                {EENTER: 90, EEXIT: 90, AEX: 0, OCALLs: 90, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 181792, Total: 348865, ServerSide: 1889809, Account: 1889809},
	"sgx/open":                        {EENTER: 38, EEXIT: 38, AEX: 0, OCALLs: 38, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 1731696},
	"sgx/serve-1":                     {EENTER: 9, EEXIT: 9, AEX: 0, OCALLs: 9, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 181792, Total: 348865, ServerSide: 367657, Account: 367657},
	"sgx/serve-2":                     {EENTER: 9, EEXIT: 9, AEX: 0, OCALLs: 9, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 181792, Total: 348865, ServerSide: 367657, Account: 367657},
	"sgx/close":                       {EENTER: 43, EEXIT: 43, AEX: 0, OCALLs: 43, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 808056},
	"sgx/do":                          {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 0, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 163096},
	"sgx/dobatch":                     {EENTER: 1, EEXIT: 1, AEX: 0, OCALLs: 0, ECALLs: 1, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 235856},
	"sgx/cold-open":                   {EENTER: 98, EEXIT: 98, AEX: 7, OCALLs: 98, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 50521776},
	"sgx/cold-open-serve":             {EENTER: 9, EEXIT: 9, AEX: 0, OCALLs: 9, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 181792, Total: 348865, ServerSide: 367657, Account: 367657},
	"sgx/cold-open-close":             {EENTER: 43, EEXIT: 43, AEX: 0, OCALLs: 43, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 808056},
	"sgx-exitless/cold-oneshot":       {EENTER: 60, EEXIT: 60, AEX: 7, OCALLs: 150, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 187592, Total: 255265, ServerSide: 50419489, Account: 50419489},
	"sgx-exitless/warm-oneshot":       {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 90, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 167592, Total: 235265, ServerSide: 611809, Account: 611809},
	"sgx-exitless/open":               {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 38, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 1192096},
	"sgx-exitless/serve-1":            {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 9, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 167592, Total: 235265, ServerSide: 239857, Account: 239857},
	"sgx-exitless/serve-2":            {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 9, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 167592, Total: 235265, ServerSide: 239857, Account: 239857},
	"sgx-exitless/close":              {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 43, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 197456},
	"sgx-exitless/do":                 {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 0, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 163096},
	"sgx-exitless/dobatch":            {EENTER: 1, EEXIT: 1, AEX: 0, OCALLs: 0, ECALLs: 1, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 235856},
	"sgx-exitless/cold-open":          {EENTER: 60, EEXIT: 60, AEX: 7, OCALLs: 98, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 49982176},
	"sgx-exitless/cold-open-serve":    {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 9, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 167592, Total: 235265, ServerSide: 239857, Account: 239857},
	"sgx-exitless/cold-open-close":    {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 43, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 197456},
	"sgx-usertcp/cold-oneshot":        {EENTER: 73, EEXIT: 73, AEX: 7, OCALLs: 73, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 201792, Total: 275841, ServerSide: 50251441, Account: 50251441},
	"sgx-usertcp/warm-oneshot":        {EENTER: 13, EEXIT: 13, AEX: 0, OCALLs: 13, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 181792, Total: 255841, ServerSide: 443761, Account: 443761},
	"sgx-usertcp/open":                {EENTER: 4, EEXIT: 4, AEX: 0, OCALLs: 4, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 1092768},
	"sgx-usertcp/serve-1":             {EENTER: 4, EEXIT: 4, AEX: 0, OCALLs: 4, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 181792, Total: 255841, ServerSide: 274633, Account: 274633},
	"sgx-usertcp/serve-2":             {EENTER: 4, EEXIT: 4, AEX: 0, OCALLs: 4, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 181792, Total: 255841, ServerSide: 274633, Account: 274633},
	"sgx-usertcp/close":               {EENTER: 5, EEXIT: 5, AEX: 0, OCALLs: 5, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 93960},
	"sgx-usertcp/do":                  {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 0, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 163096},
	"sgx-usertcp/dobatch":             {EENTER: 1, EEXIT: 1, AEX: 0, OCALLs: 0, ECALLs: 1, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 235856},
	"sgx-usertcp/cold-open":           {EENTER: 64, EEXIT: 64, AEX: 7, OCALLs: 64, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 49882848},
	"sgx-usertcp/cold-open-serve":     {EENTER: 4, EEXIT: 4, AEX: 0, OCALLs: 4, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 181792, Total: 255841, ServerSide: 274633, Account: 274633},
	"sgx-usertcp/cold-open-close":     {EENTER: 5, EEXIT: 5, AEX: 0, OCALLs: 5, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 93960},
	"sgx-switchless/cold-oneshot":     {EENTER: 1, EEXIT: 1, AEX: 7, OCALLs: 150, ECALLs: 1, PageFaults: 0, Submitted: 1, Doorbells: 1, Functional: 187592, Total: 255265, ServerSide: 49567489, Account: 49586789},
	"sgx-switchless/warm-oneshot":     {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 90, ECALLs: 0, PageFaults: 0, Submitted: 1, Doorbells: 0, Functional: 167592, Total: 235265, ServerSide: 611809, Account: 612609},
	"sgx-switchless/open":             {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 38, ECALLs: 0, PageFaults: 0, Submitted: 1, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 1192896},
	"sgx-switchless/serve-1":          {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 9, ECALLs: 0, PageFaults: 0, Submitted: 1, Doorbells: 0, Functional: 167592, Total: 235265, ServerSide: 239857, Account: 240657},
	"sgx-switchless/serve-2":          {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 9, ECALLs: 0, PageFaults: 0, Submitted: 1, Doorbells: 0, Functional: 167592, Total: 235265, ServerSide: 239857, Account: 240657},
	"sgx-switchless/close":            {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 43, ECALLs: 0, PageFaults: 0, Submitted: 1, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 198256},
	"sgx-switchless/do":               {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 0, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 163096},
	"sgx-switchless/dobatch":          {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 0, ECALLs: 0, PageFaults: 0, Submitted: 1, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 219456},
	"sgx-switchless/cold-open":        {EENTER: 1, EEXIT: 1, AEX: 7, OCALLs: 98, ECALLs: 1, PageFaults: 0, Submitted: 1, Doorbells: 1, Functional: 0, Total: 0, ServerSide: 0, Account: 49149476},
	"sgx-switchless/cold-open-serve":  {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 9, ECALLs: 0, PageFaults: 0, Submitted: 1, Doorbells: 0, Functional: 167592, Total: 235265, ServerSide: 239857, Account: 240657},
	"sgx-switchless/cold-open-close":  {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 43, ECALLs: 0, PageFaults: 0, Submitted: 1, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 198256},
	"sgx-ring-noflag/cold-oneshot":    {EENTER: 150, EEXIT: 150, AEX: 7, OCALLs: 150, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 201792, Total: 368865, ServerSide: 51697489, Account: 51697489},
	"sgx-ring-noflag/warm-oneshot":    {EENTER: 90, EEXIT: 90, AEX: 0, OCALLs: 90, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 181792, Total: 348865, ServerSide: 1889809, Account: 1889809},
	"sgx-ring-noflag/open":            {EENTER: 38, EEXIT: 38, AEX: 0, OCALLs: 38, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 1731696},
	"sgx-ring-noflag/serve-1":         {EENTER: 9, EEXIT: 9, AEX: 0, OCALLs: 9, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 181792, Total: 348865, ServerSide: 367657, Account: 367657},
	"sgx-ring-noflag/serve-2":         {EENTER: 9, EEXIT: 9, AEX: 0, OCALLs: 9, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 181792, Total: 348865, ServerSide: 367657, Account: 367657},
	"sgx-ring-noflag/close":           {EENTER: 43, EEXIT: 43, AEX: 0, OCALLs: 43, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 808056},
	"sgx-ring-noflag/do":              {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 0, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 163096},
	"sgx-ring-noflag/dobatch":         {EENTER: 1, EEXIT: 1, AEX: 0, OCALLs: 0, ECALLs: 1, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 235856},
	"sgx-ring-noflag/cold-open":       {EENTER: 98, EEXIT: 98, AEX: 7, OCALLs: 98, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 50521776},
	"sgx-ring-noflag/cold-open-serve": {EENTER: 9, EEXIT: 9, AEX: 0, OCALLs: 9, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 181792, Total: 348865, ServerSide: 367657, Account: 367657},
	"sgx-ring-noflag/cold-open-close": {EENTER: 43, EEXIT: 43, AEX: 0, OCALLs: 43, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 808056},
	"native/cold-oneshot":             {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 0, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 155512, Total: 199398, ServerSide: 3275390, Account: 3275390},
	"native/warm-oneshot":             {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 0, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 155512, Total: 199398, ServerSide: 316822, Account: 316822},
	"native/open":                     {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 0, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 1014416},
	"native/serve-1":                  {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 0, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 155512, Total: 199398, ServerSide: 200830, Account: 200830},
	"native/serve-2":                  {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 0, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 155512, Total: 199398, ServerSide: 200830, Account: 200830},
	"native/close":                    {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 0, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 61576},
	"native/do":                       {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 0, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 154096},
	"native/dobatch":                  {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 0, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 205616},
	"native/cold-open":                {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 0, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 3014416},
	"native/cold-open-serve":          {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 0, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 155512, Total: 199398, ServerSide: 200830, Account: 200830},
	"native/cold-open-close":          {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 0, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 61576},
	"sev/cold-oneshot":                {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 0, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 160096, Total: 203982, ServerSide: 3296774, Account: 3296774},
	"sev/warm-oneshot":                {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 0, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 160096, Total: 203982, ServerSide: 338206, Account: 338206},
	"sev/do":                          {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 0, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 160096},
	"sev/dobatch":                     {EENTER: 0, EEXIT: 0, AEX: 0, OCALLs: 0, ECALLs: 0, PageFaults: 0, Submitted: 0, Doorbells: 0, Functional: 0, Total: 0, ServerSide: 0, Account: 210048},
}
