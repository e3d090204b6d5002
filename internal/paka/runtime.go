package paka

import (
	"context"
	"errors"
	"sync"
	"time"

	"shield5g/internal/costmodel"
	"shield5g/internal/hmee/gramine"
	"shield5g/internal/hmee/sev"
	"shield5g/internal/hmee/sgx"
	"shield5g/internal/simclock"
)

// Isolation selects how a P-AKA module is deployed, mirroring the paper's
// three comparison points.
type Isolation int

// Isolation modes.
const (
	// Monolithic keeps the AKA functions inside the parent VNF (the
	// unmodified OAI baseline).
	Monolithic Isolation = iota + 1
	// Container extracts the functions into a plain Docker container.
	Container
	// SGX runs the extracted container inside an SGX enclave via
	// Gramine shielded containers.
	SGX
	// SEV runs the extracted container inside an AMD SEV-SNP–style
	// confidential VM — the alternative HMEE the paper discusses in
	// §IV-C: no refactoring, no per-syscall transitions, but a far
	// larger trusted computing base.
	SEV
)

// String names the isolation mode.
func (i Isolation) String() string {
	switch i {
	case Monolithic:
		return "monolithic"
	case Container:
		return "container"
	case SGX:
		return "sgx"
	case SEV:
		return "sev"
	default:
		return "unknown"
	}
}

// Exec is the execution surface a module handler charges its work
// through (gramine.Exec): inside an enclave the *sgx.Thread, in a plain
// container or confidential VM that runtime's native surface.
type Exec = gramine.Exec

// Call is one typed unit of work a runtime runs across its isolation
// boundary (gramine.Call). The module's pooled request and batch bindings
// implement it, so no layer below wraps them per call.
type Call = gramine.Call

// Breakdown re-exports the per-request latency windows.
type Breakdown = gramine.Breakdown

// Runtime hosts a module's request loop under one isolation mode. Every
// runtime embeds a gramine.Server around its own request body, so the
// keep-alive contract (gramine.Session) is the same under each.
type Runtime interface {
	// OpenSession opens a persistent connection for pipelined requests:
	// the per-connection setup (accept machinery, TLS handshake) is paid
	// at open, the teardown at Session.Close.
	OpenSession(ctx context.Context) (*gramine.Session, error)
	// Serve runs one request through the modelled server path: on s when
	// it is an open session of this runtime, or as a one-shot request
	// (paying the per-connection machinery too) when s is nil. A closed
	// session fails with gramine.ErrSessionClosed.
	Serve(ctx context.Context, s *gramine.Session, inBytes, outBytes int, call Call) (Breakdown, error)
	// Do runs call on the runtime's execution surface outside any request
	// (provisioning, maintenance).
	Do(ctx context.Context, call Call) error
	// DoBatch runs call across the isolation boundary in a single crossing
	// sized argBytes in / retBytes out — under SGX one EENTER/EEXIT pair
	// for the whole batch; isolation modes without per-crossing
	// transitions treat it like Do plus the data movement.
	DoBatch(ctx context.Context, argBytes, retBytes int, call Call) error
	// LoadDuration is the modelled deployment time (Fig. 7 for SGX).
	LoadDuration() time.Duration
	// Stats snapshots SGX counters (zero for non-SGX runtimes).
	Stats() sgx.StatsSnapshot
	// AccrueUptime models d of deployed residency.
	AccrueUptime(d time.Duration)
	// Warm reports whether the first request has been served.
	Warm() bool
	// Shutdown stops the runtime and releases its resources.
	Shutdown()
}

// The Gramine shielded container is the SGX runtime as it stands.
var _ Runtime = (*gramine.Instance)(nil)

// --- SEV runtime (confidential VM) ---

// sevRuntime is the confidential VM with the SGX-only parts of the
// runtime contract stubbed out.
type sevRuntime struct {
	*sev.Machine
}

// newSEVRuntime launches the module inside a confidential VM.
func newSEVRuntime(ctx context.Context, env *costmodel.Env, name string, appImageBytes uint64) (Runtime, error) {
	machine, err := sev.Launch(ctx, env, sev.Config{Name: name, AppImageBytes: appImageBytes})
	if err != nil {
		return nil, err
	}
	return sevRuntime{machine}, nil
}

// DoBatch is Do: a confidential VM has no per-crossing transition to
// amortize.
func (r sevRuntime) DoBatch(ctx context.Context, _, _ int, call Call) error { return r.Do(ctx, call) }

func (sevRuntime) Stats() sgx.StatsSnapshot     { return sgx.StatsSnapshot{} }
func (sevRuntime) AccrueUptime(d time.Duration) {}
func (r sevRuntime) Shutdown()                  { r.Stop() }

// The guest execution surface satisfies the runtime contract.
var _ Exec = sev.Exec{}

// --- native runtime (plain container) ---

// containerStartup is the modelled plain-container deployment time; the
// paper's Fig. 7 contrast is that the same image loads in well under a
// second without an enclave.
const containerStartup = 400 * time.Millisecond

// nativeWarmupCycles models the first request's lazy library loading in a
// plain container (no trusted-file verification, so far cheaper than the
// enclave's warm-up).
const nativeWarmupCycles = 2_000_000

// errStopped reports use of a stopped native runtime.
var errStopped = errors.New("paka: runtime stopped")

type nativeRuntime struct {
	env      *costmodel.Env
	syscalls gramine.SyscallProfile

	// Server serves requests through the container's request body.
	*gramine.Server

	mu      sync.Mutex
	secrets map[string][]byte
}

func newNativeRuntime(env *costmodel.Env) *nativeRuntime {
	r := &nativeRuntime{
		env:      env,
		syscalls: gramine.DefaultSyscallProfile(),
		secrets:  make(map[string][]byte),
	}
	r.Server = gramine.NewServer(r.serve, errStopped)
	return r
}

type nativeExec struct {
	ctx context.Context
	rt  *nativeRuntime
}

func (e nativeExec) Compute(n simclock.Cycles) { e.rt.env.Charge(e.ctx, n) }

func (e nativeExec) Touch(nBytes uint64) {
	e.rt.env.Charge(e.ctx, simclock.Cycles(nBytes)*e.rt.env.Model.CopyPerByte)
}

func (e nativeExec) StoreSecret(name string, data []byte) {
	e.rt.mu.Lock()
	e.rt.secrets[name] = append([]byte(nil), data...)
	e.rt.mu.Unlock()
}

func (e nativeExec) LoadSecret(name string) ([]byte, bool) {
	e.rt.mu.Lock()
	defer e.rt.mu.Unlock()
	d, ok := e.rt.secrets[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), d...), true
}

var _ Exec = nativeExec{}

// serve is the plain container's one request body (its Server's
// ServeFunc), run phase by phase in the enclave runtime's order so the
// container-vs-SGX comparison stays apples-to-apples in one-shot and
// keep-alive mode alike.
func (r *nativeRuntime) serve(ctx context.Context, _ *gramine.Session, ph gramine.Phases, in, out int, call Call) (Breakdown, error) {
	m := r.env.Model
	// Pin the request account so callers without one still get coherent
	// latency windows.
	acct := simclock.AccountFrom(ctx)
	ctx = simclock.WithAccount(ctx, acct)
	charge := func(n simclock.Cycles) { r.env.Charge(ctx, n) }
	syscalls := func(n, bytes int) {
		for k := 0; k < n; k++ {
			charge(m.SyscallNative + simclock.Cycles(bytes)*m.CopyPerByte)
		}
	}
	start := acct.Total()
	request := ph&gramine.PhaseRequest != 0

	if ph&gramine.PhaseWarmup != 0 {
		charge(nativeWarmupCycles)
	}
	handshake := ph&gramine.PhaseHandshake != 0
	if handshake && ph.HandshakeFirst() {
		charge(m.TLSHandshakeServer)
	}
	n := 0
	if ph&gramine.PhasePre != 0 {
		n = r.syscalls.Pre
	}
	if request {
		n += int(r.env.JitterFor(ctx).Uint64n(3))
	}
	syscalls(n, 32)
	if handshake && !ph.HandshakeFirst() {
		charge(m.TLSHandshakeServer)
	}

	var bd Breakdown
	var err error
	if request {
		totalStart := acct.Total()
		syscalls(r.syscalls.Read, in/r.syscalls.Read+1)
		charge(m.TLSRecordCost(in) + m.HTTPCost(in))

		fnStart := acct.Total()
		syscalls(r.syscalls.InHandler, 16)
		err = call.Run(nativeExec{ctx: ctx, rt: r})
		bd.Functional = acct.Total() - fnStart

		charge(m.HTTPCost(out) + m.TLSRecordCost(out))
		syscalls(r.syscalls.Write, out/r.syscalls.Write+1)
		bd.Total = acct.Total() - totalStart
	}
	if ph&gramine.PhasePost != 0 {
		syscalls(r.syscalls.Post, 32)
	}
	bd.ServerSide = acct.Total() - start
	return bd, err
}

func (r *nativeRuntime) Do(ctx context.Context, call Call) error {
	if err := r.Live(); err != nil {
		return err
	}
	// Pin the account so multi-step maintenance aggregates on one ledger.
	ctx = simclock.WithAccount(ctx, simclock.AccountFrom(ctx))
	return call.Run(nativeExec{ctx: ctx, rt: r})
}

// DoBatch natively is Do plus the IPC moving the batch in and out of the
// module process — no transition pair to save, which is exactly the
// contrast the batching experiment measures.
func (r *nativeRuntime) DoBatch(ctx context.Context, argBytes, retBytes int, call Call) error {
	if err := r.Live(); err != nil {
		return err
	}
	ctx = simclock.WithAccount(ctx, simclock.AccountFrom(ctx))
	m := r.env.Model
	r.env.Charge(ctx, m.SyscallNative+simclock.Cycles(argBytes)*m.CopyPerByte)
	err := call.Run(nativeExec{ctx: ctx, rt: r})
	r.env.Charge(ctx, m.SyscallNative+simclock.Cycles(retBytes)*m.CopyPerByte)
	return err
}

func (r *nativeRuntime) LoadDuration() time.Duration { return containerStartup }

func (r *nativeRuntime) Stats() sgx.StatsSnapshot { return sgx.StatsSnapshot{} }

func (r *nativeRuntime) AccrueUptime(d time.Duration) { r.env.Clock.AdvanceDuration(d) }

func (r *nativeRuntime) Shutdown() {
	r.StopServing()
	r.mu.Lock()
	for k := range r.secrets {
		delete(r.secrets, k)
	}
	r.mu.Unlock()
}

// dump is the attacker's view of the plain container's memory: plaintext.
func (r *nativeRuntime) dump(name string) ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.secrets[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), d...), true
}
