package gramine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"shield5g/internal/hmee/sgx"
	"shield5g/internal/simclock"
)

// Instance lifecycle errors.
// ErrNotRunning reports use of a stopped instance.
var ErrNotRunning = errors.New("gramine: instance not running")

// SyscallProfile is the per-request syscall census of the module's HTTPS
// server. Under Gramine every syscall is proxied through an OCALL, so
// these counts are the source of the ~90 EENTER/EEXIT pairs the paper
// measures per UE registration (Table III); under a plain container the
// same syscalls execute at native cost. Both runtimes share this profile
// so the SGX-vs-container comparison differs only in the per-event price.
type SyscallProfile struct {
	// Pre counts the pre-request machinery: epoll_wait wake-up, futexes,
	// accept processing.
	Pre int
	// Read counts the request reads: recvmsg ×2 plus a readiness ioctl.
	Read int
	// InHandler counts syscalls issued during the AKA function itself
	// (clock_gettime in the debug/stats build).
	InHandler int
	// Write counts the response path: sendmsg ×2, epoll_ctl re-arm,
	// futex wake.
	Write int
	// Post counts the post-request machinery: timer re-arm, IPC with
	// helper threads, stats flush.
	Post int
}

// DefaultSyscallProfile reproduces the paper's ~90 transitions per served
// request.
func DefaultSyscallProfile() SyscallProfile {
	return SyscallProfile{Pre: 38, Read: 3, InHandler: 1, Write: 4, Post: 43}
}

// UserTCPSyscallProfile models the mTCP-style user-level network stack the
// paper proposes as a §V-B7 optimization: the TCP machinery runs inside
// the enclave over shared-memory packet rings, collapsing the per-request
// syscall census to the ring notifications (DPDK-style I/O). The trade-off
// the paper notes — more functionality inside the enclave, bigger TCB —
// is reflected in the TCB accounting, not hidden.
func UserTCPSyscallProfile() SyscallProfile {
	return SyscallProfile{Pre: 4, Read: 1, InHandler: 1, Write: 1, Post: 5}
}

// Total sums all phases.
func (sp SyscallProfile) Total() int {
	return sp.Pre + sp.Read + sp.InHandler + sp.Write + sp.Post
}

// Launch-time constants.
const (
	// serverInitOCALLs is the cost of bringing the in-enclave HTTPS
	// server up: socket/bind/listen, certificate loading, epoll setup.
	// Together with the GSC bootstrap this reproduces the paper's ~650
	// extra EENTER/EEXITs for a server versus the empty workload.
	serverInitOCALLs = 590
	// warmupOCALLs and warmupVerifyBytes model the first request: the
	// lazy dlopen of network-stack dependencies triggers a handful of
	// OCALLs plus in-enclave verification (hashing) of the
	// lazily-loaded trusted files. The verification compute is what
	// makes the initial response ~20× the stable one (Fig. 10b) without
	// inflating the transition counts of Table III.
	warmupOCALLs      = 60
	warmupVerifyBytes = 2_800_000
)

// Breakdown reports the virtual-time windows of one served request using
// the paper's metric names: L_F (functional latency: the AKA function
// execution), L_T (total latency: request receipt to response send inside
// the module), and the full server-side residence that the caller extends
// into the response time R.
type Breakdown struct {
	Functional simclock.Cycles
	Total      simclock.Cycles
	ServerSide simclock.Cycles
}

// Instance is one running shielded container: an enclave booted through
// the Gramine LibOS, with its resident process entry and helper threads.
type Instance struct {
	platform *sgx.Platform
	image    *ShieldedImage
	enclave  *sgx.Enclave
	syscalls SyscallProfile
	exitless bool

	proc    *sgx.Thread
	helpers []*sgx.Thread

	// ring and dispatcher implement the switchless ECALL path: the
	// dispatcher pins one TCS for the life of the instance and serves
	// jobs submitted into the shared-memory ring. Both are nil unless
	// Manifest.SwitchlessECalls was set.
	ring       *sgx.Ring
	dispatcher *sgx.Thread

	// Server serves requests through the instance's request body.
	*Server
}

// LaunchOption tunes instance bring-up.
type LaunchOption func(*launchConfig)

type launchConfig struct {
	noServer bool
	syscalls *SyscallProfile
}

// WithoutServer skips the HTTPS server bring-up syscalls — used for the
// paper's "empty workload" GSC baseline (Table III).
func WithoutServer() LaunchOption {
	return func(c *launchConfig) { c.noServer = true }
}

// WithSyscallProfile overrides the per-request syscall census (for the
// user-level TCP ablation).
func WithSyscallProfile(sp SyscallProfile) LaunchOption {
	return func(c *launchConfig) { c.syscalls = &sp }
}

// Launch verifies the shielded image, builds its enclave (charging the
// full Fig. 7 load cost to ctx's account), enters the resident process and
// helper threads, and starts the in-enclave server.
func Launch(ctx context.Context, p *sgx.Platform, si *ShieldedImage, opts ...LaunchOption) (*Instance, error) {
	if p == nil || si == nil {
		return nil, errors.New("gramine: nil platform or image")
	}
	var lc launchConfig
	for _, opt := range opts {
		opt(&lc)
	}
	if err := si.Verify(); err != nil {
		return nil, fmt.Errorf("gramine: launch: %w", err)
	}
	enclave, err := p.Build(ctx, si.EnclaveConfig())
	if err != nil {
		return nil, fmt.Errorf("gramine: build enclave: %w", err)
	}

	inst := &Instance{
		platform: p,
		image:    si,
		enclave:  enclave,
		syscalls: DefaultSyscallProfile(),
		exitless: si.Manifest.Exitless,
	}
	inst.Server = NewServer(inst.serve, ErrNotRunning)
	if lc.syscalls != nil {
		inst.syscalls = *lc.syscalls
	}

	// One never-returning ECALL for the process, one per helper thread.
	proc, err := enclave.EnterResident(ctx)
	if err != nil {
		enclave.Destroy()
		return nil, fmt.Errorf("gramine: enter process: %w", err)
	}
	inst.proc = proc
	for i := 0; i < HelperThreads; i++ {
		h, err := enclave.EnterResident(ctx)
		if err != nil {
			inst.Shutdown()
			return nil, fmt.Errorf("gramine: enter helper %d: %w", i, err)
		}
		inst.helpers = append(inst.helpers, h)
	}

	// Server bring-up syscalls.
	if !lc.noServer {
		m := p.Model()
		for i := 0; i < serverInitOCALLs; i++ {
			proc.OCall(m.SyscallNative, 32, 32)
		}
	}

	// The switchless dispatcher enters last, after the server is up, and
	// never returns: one more long-lived EENTER pinning one TCS for the
	// life of the instance.
	if si.Manifest.SwitchlessECalls {
		d, err := enclave.EnterResident(ctx)
		if err != nil {
			inst.Shutdown()
			return nil, fmt.Errorf("gramine: enter switchless dispatcher: %w", err)
		}
		inst.dispatcher = d
		inst.ring = sgx.NewRing(enclave, d, 0)
	}
	return inst, nil
}

// Enclave exposes the underlying enclave (stats, sealing, attestation).
func (i *Instance) Enclave() *sgx.Enclave { return i.enclave }

// Image returns the shielded image the instance was launched from.
func (i *Instance) Image() *ShieldedImage { return i.image }

// LoadDuration reports the modelled enclave load time (Fig. 7).
func (i *Instance) LoadDuration() time.Duration { return i.enclave.LoadDuration() }

// TCBBytes reports the trusted computing base carried by this instance:
// the bytes measured into the enclave identity. Optimizations that pull
// more functionality inside (user-level TCP) grow this number — the
// trade-off the paper calls out in §V-B7.
func (i *Instance) TCBBytes() uint64 {
	var n uint64
	for _, f := range i.image.Manifest.TrustedFiles {
		n += f.Size
	}
	return n
}

// Exitless reports whether switchless OCALLs are active.
func (i *Instance) Exitless() bool { return i.exitless }

// Switchless reports whether the instance runs a switchless ECALL ring.
func (i *Instance) Switchless() bool { return i.ring != nil }

// RingOccupancy reports the submission ring's published-but-unserved job
// count (0 without a ring). The UDM's AV mint reads it to widen batches
// opportunistically from cross-worker concurrency.
func (i *Instance) RingOccupancy() int {
	if i.ring == nil {
		return 0
	}
	return i.ring.Occupancy()
}

// RingStats snapshots the submission ring's counters (zero without a
// ring).
func (i *Instance) RingStats() sgx.RingStats {
	if i.ring == nil {
		return sgx.RingStats{}
	}
	return i.ring.Stats()
}

// crossing is how a call reaches the code inside the enclave.
type crossing uint8

const (
	// crossResident runs on the resident process thread the request
	// already occupies: the in-enclave server's classic path, whose
	// proxied syscalls are full OCALLs (exitless on exitless instances).
	crossResident crossing = iota
	// crossECall enters through a fresh ECALL on a spare TCS: one
	// EENTER/EEXIT pair for the whole call (DoBatch).
	crossECall
	// crossRing submits the call into the switchless ring: it runs on the
	// dispatcher's TCS and never leaves the enclave, so every proxied
	// syscall takes the exitless handoff.
	crossRing
)

// crossing picks the ring when the instance has one and the call opted in
// (sgx.WithSwitchless), otherwise the classic crossing.
func (i *Instance) crossing(switchless bool, classic crossing) crossing {
	if i.ring != nil && switchless {
		return crossRing
	}
	return classic
}

// serve is the instance's request body (its Server's ServeFunc): it runs
// the phases across the call's crossing — for a session, the one fixed
// at open.
//
//shieldlint:hotpath
func (i *Instance) serve(ctx context.Context, s *Session, ph Phases, inBytes, outBytes int, call Call) (Breakdown, error) {
	switchless := sgx.SwitchlessFrom(ctx)
	if s != nil {
		switchless = s.switchless
	}
	return i.run(ctx, ph, i.crossing(switchless, crossResident), inBytes, outBytes, call)
}

// Do runs call on the resident in-enclave process thread outside the
// request path — used for provisioning secrets into the enclave and other
// maintenance that should not be measured as a served request.
func (i *Instance) Do(ctx context.Context, call Call) error {
	if err := i.Live(); err != nil {
		return err
	}
	// Pin the request account the way Serve does: maintenance work
	// (secret provisioning, AV pool refills) must stay visible to the
	// caller's account even when nested code re-derives it from ctx.
	ctx = simclock.WithAccount(ctx, simclock.AccountFrom(ctx))
	_, err := i.run(ctx, 0, crossResident, 0, 0, call)
	return err
}

// DoBatch runs call in one crossing instead of on the resident request
// path: a batch of K AV generations charges K× the crypto but at most one
// EENTER/EEXIT transition pair, with argBytes/retBytes shielded across
// the boundary once for the whole batch.
//
// Classically the crossing is one fresh ECALL, which needs a free TCS
// slot beyond the resident threads (Manifest.MaxThreads ≥
// HelperThreads+2); acquisition queues, honouring ctx cancellation, so
// concurrent refills serialise on the spare slot instead of failing. When
// ctx opted into the instance's switchless ring the batch crosses through
// the ring instead: the same shield cost, but no transition pair and no
// spare slot.
func (i *Instance) DoBatch(ctx context.Context, argBytes, retBytes int, call Call) error {
	if err := i.Live(); err != nil {
		return err
	}
	ctx = simclock.WithAccount(ctx, simclock.AccountFrom(ctx))
	_, err := i.run(ctx, 0, i.crossing(sgx.SwitchlessFrom(ctx), crossECall), argBytes, retBytes, call)
	return err
}

// threadPool recycles the per-request sgx.Thread bindings every call
// mints: calls are synchronous and never retain the thread, so one pooled
// binding per in-flight call replaces one heap allocation per served
// request on the hot path.
var threadPool = sync.Pool{New: func() any { return new(sgx.Thread) }}

// jobPool recycles the call bindings run hands to its crossing; a ring
// submission carries one behind the sgx.RingJob interface, so the
// steady-state ring path allocates nothing either.
var jobPool = sync.Pool{New: func() any { return new(job) }}

// job is one call bound to its request: the phases of the server body it
// runs (none for Do/DoBatch) and the crossing that reaches the enclave.
// Every entry point runs through it, whichever the crossing.
type job struct {
	inst  *Instance
	ctx   context.Context
	acct  *simclock.Account
	ph    Phases
	cross crossing
	// in and out are the request and response bytes of a served request,
	// or the argument and result bytes of a batch.
	in, out int
	call    Call
	bd      Breakdown
}

// run binds a pooled job and sends it across the chosen crossing.
//
//shieldlint:hotpath
func (i *Instance) run(ctx context.Context, ph Phases, cross crossing, in, out int, call Call) (Breakdown, error) {
	j := jobPool.Get().(*job)
	*j = job{inst: i, ctx: ctx, acct: simclock.AccountFrom(ctx), ph: ph, cross: cross, in: in, out: out, call: call}
	var err error
	switch cross {
	case crossRing:
		err = i.ring.Submit(ctx, j)
	case crossECall:
		err = i.enclave.ECall(ctx, in, out, j.Execute)
	default:
		err = j.Execute(i.proc)
	}
	bd := j.bd
	*j = job{}
	jobPool.Put(j)
	return bd, err
}

// Execute runs the job on a pooled thread bound to the submitting
// request's account and jitter stream, whichever thread t carried it in
// (the resident process thread, a fresh ECALL's or the ring
// dispatcher's).
//
//shieldlint:hotpath
func (j *job) Execute(t *sgx.Thread) error {
	th := threadPool.Get().(*sgx.Thread)
	defer threadPool.Put(th)
	t.BindRequest(j.ctx, j.acct, th)
	if j.ph == 0 {
		if j.cross == crossRing {
			// The batch buffers cross through shared memory.
			th.ShieldTransfer(j.in, j.out)
		}
		return j.call.Run(th)
	}
	var err error
	j.bd, err = j.request(th)
	return err
}

// request is the in-enclave server's one request body: the warm-up, the
// handshake, the Pre machinery, the request census and the Post
// machinery, each run when the job's phase set holds it, in that order
// (the handshake moves after Pre for a session open).
//
//shieldlint:hotpath
func (j *job) request(th *sgx.Thread) (Breakdown, error) {
	i := j.inst
	m := i.platform.Model()
	ring := j.cross == crossRing
	acct := j.acct
	start := acct.Total()

	if j.ph&PhaseWarmup != 0 {
		// Lazy loading of network-stack dependencies: a few OCALLs and
		// the in-enclave verification of the lazily-read trusted files.
		// The loader's OCALLs leave the enclave even on exitless
		// instances; only the ring keeps them inside.
		for k := 0; k < warmupOCALLs; k++ {
			if ring {
				th.OCallExitless(m.SyscallNative, 64, 64)
			} else {
				th.OCall(m.SyscallNative, 64, 64)
			}
		}
		th.Compute(simclock.Cycles(warmupVerifyBytes) * m.TrustedFileHashPerByte)
	}
	handshake := j.ph&PhaseHandshake != 0
	if handshake && j.ph.HandshakeFirst() {
		th.Compute(m.TLSHandshakeServer)
	}

	n := 0
	if j.ph&PhasePre != 0 {
		n = i.syscalls.Pre
	}
	if j.ph&PhaseRequest != 0 {
		// The Pre variation of a one-shot, the keep-alive readiness
		// wake-ups of a session: both draw from the same jitter position.
		n += int(simclock.JitterFrom(j.ctx, i.platform.Jitter()).Uint64n(3))
	}
	for k := 0; k < n; k++ {
		i.ocall(ring, th, m.SyscallNative, 16, 16)
	}
	if handshake && !j.ph.HandshakeFirst() {
		th.Compute(m.TLSHandshakeServer)
	}

	var bd Breakdown
	var err error
	if j.ph&PhaseRequest != 0 {
		sp := i.syscalls
		totalStart := acct.Total()
		for k := 0; k < sp.Read; k++ {
			i.ocall(ring, th, m.SyscallNative, 0, j.in/sp.Read+1)
		}
		th.Compute(m.TLSRecordCost(j.in) + m.HTTPCost(j.in))
		th.Touch(uint64(j.in))

		fnStart := acct.Total()
		for k := 0; k < sp.InHandler; k++ {
			i.ocall(ring, th, m.SyscallNative, 8, 8)
		}
		err = j.call.Run(th)
		bd.Functional = acct.Total() - fnStart

		th.Compute(m.HTTPCost(j.out) + m.TLSRecordCost(j.out))
		th.Touch(uint64(j.out))
		for k := 0; k < sp.Write; k++ {
			i.ocall(ring, th, m.SyscallNative, j.out/sp.Write+1, 0)
		}
		bd.Total = acct.Total() - totalStart
	}

	if j.ph&PhasePost != 0 {
		for k := 0; k < i.syscalls.Post; k++ {
			i.ocall(ring, th, m.SyscallNative, 16, 16)
		}
	}
	bd.ServerSide = acct.Total() - start
	return bd, err
}

// ocall issues one proxied syscall on th: through the exitless handoff
// when the request rides the ring (it must never leave the enclave) or
// the instance is exitless, otherwise a full EEXIT/EENTER transition pair.
//
//shieldlint:hotpath
func (i *Instance) ocall(ring bool, th *sgx.Thread, untrusted simclock.Cycles, out, in int) {
	if ring || i.exitless {
		th.OCallExitless(untrusted, out, in)
	} else {
		th.OCall(untrusted, out, in)
	}
}

// AccrueUptime models the instance staying deployed for d of virtual time
// (timer-interrupt AEX accumulation; Table III).
func (i *Instance) AccrueUptime(d time.Duration) { i.enclave.AccrueUptime(d) }

// Stats snapshots the enclave's SGX counters.
func (i *Instance) Stats() sgx.StatsSnapshot { return i.enclave.Stats() }

// Shutdown leaves the resident threads and destroys the enclave. It is
// idempotent.
func (i *Instance) Shutdown() {
	if !i.StopServing() {
		return
	}

	// The ring closes first so in-flight submissions drain (completed
	// exactly once with ErrRingClosed) before the dispatcher's TCS is
	// released and the enclave torn down.
	if i.ring != nil {
		i.ring.Close()
	}
	if i.dispatcher != nil {
		i.enclave.LeaveResident(i.dispatcher)
		i.dispatcher = nil
	}
	for _, h := range i.helpers {
		i.enclave.LeaveResident(h)
	}
	i.helpers = nil
	if i.proc != nil {
		i.enclave.LeaveResident(i.proc)
		i.proc = nil
	}
	i.enclave.Destroy()
}
