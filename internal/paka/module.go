package paka

import (
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"shield5g/internal/costmodel"
	"shield5g/internal/crypto/milenage"
	"shield5g/internal/hmee/gramine"
	"shield5g/internal/hmee/sev"
	"shield5g/internal/hmee/sgx"
	"shield5g/internal/metrics"
	"shield5g/internal/sbi"
)

// Config describes one P-AKA module deployment.
type Config struct {
	// Kind selects eUDM, eAUSF or eAMF.
	Kind ModuleKind
	// Isolation is Container or SGX. Monolithic mode has no module
	// process; use NewMonolithic* in client.go instead.
	Isolation Isolation
	// Env supplies the shared cost environment.
	Env *costmodel.Env
	// Platform is the SGX host; required when Isolation is SGX.
	Platform *sgx.Platform
	// Registry is where the module's SBI server registers.
	Registry *sbi.Registry

	// EnclaveSizeBytes overrides the 512 MiB default (Fig. 8 sweeps).
	EnclaveSizeBytes uint64
	// MaxThreads overrides the 4-thread default (Fig. 8 sweeps).
	MaxThreads int
	// DisablePreheat turns off sgx.preheat_enclave.
	DisablePreheat bool
	// Exitless enables Gramine's switchless OCALLs (§V-B7 ablation;
	// the paper flags the feature as not production-ready). SGX only.
	Exitless bool
	// Switchless enables the switchless ECALL submission ring: a
	// dedicated in-enclave dispatcher thread pins one TCS and serves
	// shared-memory submissions, so steady-state requests cross with
	// zero EENTER/EEXIT. Changes the enclave measurement (DESIGN.md
	// §15) and bumps the manifest thread count for the dispatcher TCS.
	// Requests opt in per call with WithSwitchless. SGX only.
	Switchless bool
	// UserLevelTCP links an mTCP-style user-level network stack into
	// the module, collapsing the per-request syscall census at the cost
	// of a larger TCB (§V-B7 ablation).
	UserLevelTCP bool
	// ReserveBatchTCS keeps one TCS slot free beyond the resident
	// threads so batch ECALLs (DoBatch, the eUDM AV pool refill) can
	// enter the enclave while the server threads stay resident. SGX
	// only; bumps the manifest thread count to HelperThreads+2.
	ReserveBatchTCS bool
	// SignKey signs the GSC image; generated when nil.
	SignKey ed25519.PrivateKey
	// Service overrides the module's SBI service name (default
	// Kind.ServiceName()). Replicated deployments give every replica of a
	// kind its own name ("eudm", "eudm-r1", ...) so each registers its own
	// server, carries its own overload meter, and is addressed by its own
	// shard's VNFs. The manifest/image identity stays kind-based: replicas
	// run the same operator-signed image.
	Service string
}

// serviceName resolves the module's SBI service name from its config.
func (c *Config) serviceName() string {
	if c.Service != "" {
		return c.Service
	}
	return c.Kind.ServiceName()
}

// Module is one deployed P-AKA microservice.
type Module struct {
	kind      ModuleKind
	isolation Isolation
	profile   Profile
	env       *costmodel.Env
	server    *sbi.Server
	registry  *sbi.Registry

	// cfg is retained so Restart can redeploy an identical runtime (same
	// manifest, same sign key, same enclave measurement).
	cfg Config

	// rtMu guards the runtime pointer, which Restart swaps while requests
	// may be in flight; restartMu single-files restarts themselves.
	rtMu      sync.RWMutex
	runtime   Runtime
	restartMu sync.Mutex
	restarts  atomic.Uint64

	// Latency recorders feeding the experiments: the module-side
	// functional (L_F) and total (L_T) windows of every served request,
	// plus the full server-side residence (the service time used by the
	// horizontal-scaling experiment).
	functional *metrics.Recorder
	total      *metrics.Recorder
	serverSide *metrics.Recorder

	// sessMu guards the per-connection keep-alive sessions (session.go).
	sessMu   sync.Mutex
	sessions map[uint64]*moduleSession

	// milCache memoizes per-subscriber MILENAGE key schedules (eUDM only).
	// It is invalidated per SUPI on re-provision and wholesale on Restart,
	// mirroring the loss of in-enclave state.
	milCache *milenage.Cache

	secretMu    sync.Mutex
	secretNames []string
	// sealed holds host-side sealed backups of provisioned subscriber
	// keys (SGX only): opaque to the host, recoverable by a restarted
	// enclave with the same measurement.
	sealed map[string][]byte
}

// New deploys a P-AKA module under the configured isolation mode. For SGX
// the full GSC build + enclave load cost is charged to ctx's account.
func New(ctx context.Context, cfg Config) (*Module, error) {
	profile, ok := Profiles()[cfg.Kind]
	if !ok {
		return nil, fmt.Errorf("paka: unknown module kind %d", cfg.Kind)
	}
	if cfg.Env == nil {
		return nil, errors.New("paka: Config.Env is required")
	}
	if cfg.Registry == nil {
		return nil, errors.New("paka: Config.Registry is required")
	}

	// Resolve the sign key up front so a crash-restart rebuilds the
	// byte-identical shielded image instead of re-keying.
	if cfg.Isolation == SGX && cfg.SignKey == nil {
		var err error
		_, cfg.SignKey, err = ed25519.GenerateKey(rand.Reader)
		if err != nil {
			return nil, fmt.Errorf("paka: generate GSC sign key: %w", err)
		}
	}

	m := &Module{
		kind:       cfg.Kind,
		isolation:  cfg.Isolation,
		profile:    profile,
		env:        cfg.Env,
		registry:   cfg.Registry,
		cfg:        cfg,
		functional: &metrics.Recorder{},
		total:      &metrics.Recorder{},
		serverSide: &metrics.Recorder{},
		milCache:   milenage.NewCache(),
		sealed:     make(map[string][]byte),
	}

	switch cfg.Isolation {
	case Container:
		m.runtime = newNativeRuntime(cfg.Env)
	case SGX:
		if cfg.Platform == nil {
			return nil, errors.New("paka: SGX isolation requires Config.Platform")
		}
		rt, err := buildSGXRuntime(ctx, cfg, profile)
		if err != nil {
			return nil, err
		}
		m.runtime = rt
	case SEV:
		rt, err := newSEVRuntime(ctx, cfg.Env, cfg.Kind.ServiceName()+"-vm", profile.ImageBytes)
		if err != nil {
			return nil, err
		}
		m.runtime = rt
	default:
		return nil, fmt.Errorf("paka: isolation %s not deployable as a module", cfg.Isolation)
	}

	// The module's own sbi.Server carries no env: all server-side costs
	// are modelled by the runtime's request path, which would otherwise
	// be double-charged.
	m.server = sbi.NewServer(cfg.serviceName(), nil)
	m.registerEndpoints()
	if err := cfg.Registry.Register(m.server); err != nil {
		m.runtime.Shutdown()
		return nil, err
	}
	return m, nil
}

func buildSGXRuntime(ctx context.Context, cfg Config, profile Profile) (Runtime, error) {
	manifest := gramine.DefaultManifest("/app/" + cfg.Kind.ServiceName())
	if cfg.EnclaveSizeBytes != 0 {
		manifest.EnclaveSizeBytes = cfg.EnclaveSizeBytes
	}
	if cfg.MaxThreads != 0 {
		manifest.MaxThreads = cfg.MaxThreads
	}
	manifest.PreheatEnclave = !cfg.DisablePreheat
	if cfg.Exitless {
		manifest.Exitless = true
		// Switchless calls need a dedicated untrusted helper thread.
		if manifest.MaxThreads < gramine.HelperThreads+2 {
			manifest.MaxThreads = gramine.HelperThreads + 2
		}
	}
	if cfg.ReserveBatchTCS {
		// The resident process and helper threads hold every default TCS
		// slot permanently; batch ECALLs need a spare one to enter.
		if manifest.MaxThreads < gramine.HelperThreads+2 {
			manifest.MaxThreads = gramine.HelperThreads + 2
		}
	}
	if cfg.Switchless {
		manifest.SwitchlessECalls = true
		// The ring dispatcher pins a TCS of its own on top of the resident
		// server thread.
		need := gramine.HelperThreads + 2
		if cfg.ReserveBatchTCS {
			// The AV-pool prewarm still enters through a classic batch
			// ECALL (it runs before any connection negotiates the ring),
			// so the spare batch slot must survive the dispatcher pin.
			need = gramine.HelperThreads + 3
		}
		if manifest.MaxThreads < need {
			manifest.MaxThreads = need
		}
	}

	signKey := cfg.SignKey
	if signKey == nil {
		var err error
		_, signKey, err = ed25519.GenerateKey(rand.Reader)
		if err != nil {
			return nil, fmt.Errorf("paka: generate GSC sign key: %w", err)
		}
	}
	si, err := gramine.BuildShielded(moduleImage(cfg.Kind, profile, cfg.UserLevelTCP), manifest, signKey)
	if err != nil {
		return nil, fmt.Errorf("paka: GSC build: %w", err)
	}
	var opts []gramine.LaunchOption
	if cfg.UserLevelTCP {
		opts = append(opts, gramine.WithSyscallProfile(gramine.UserTCPSyscallProfile()))
	}
	inst, err := gramine.Launch(ctx, cfg.Platform, si, opts...)
	if err != nil {
		return nil, err
	}
	return inst, nil
}

// moduleImage synthesises the module's container image: the paper's images
// are OAI-derived Ubuntu images of a couple of gigabytes whose contents
// GSC measures as trusted files. Linking the user-level TCP stack adds its
// libraries to the image — and therefore to the measured TCB.
func moduleImage(kind ModuleKind, profile Profile, userTCP bool) gramine.ContainerImage {
	total := profile.ImageBytes
	img := gramine.ContainerImage{
		Name: kind.ServiceName() + ":v1.5.0",
		Files: []gramine.ImageFile{
			{Path: "/usr/lib/x86_64-linux-gnu/libc.so.6", Size: total * 40 / 100},
			{Path: "/usr/lib/x86_64-linux-gnu/libssl.so.3", Size: total * 25 / 100},
			{Path: "/usr/lib/x86_64-linux-gnu/libpistache.so", Size: total * 15 / 100},
			{Path: "/app/" + kind.ServiceName(), Size: total * 10 / 100},
			{Path: "/usr/share/ca-certificates/operator.pem", Size: total * 10 / 100},
			{Path: "/proc/self/status", Size: 1}, // excluded by GSC
		},
	}
	if userTCP {
		img.Files = append(img.Files,
			gramine.ImageFile{Path: "/usr/lib/x86_64-linux-gnu/libmtcp.so", Size: 24_000_000},
			gramine.ImageFile{Path: "/usr/lib/x86_64-linux-gnu/libdpdk.so", Size: 36_000_000},
		)
	}
	return img
}

// rt returns the current runtime; requests that grabbed an older runtime
// across a Restart fail with a transient error and are retried.
func (m *Module) rt() Runtime {
	m.rtMu.RLock()
	defer m.rtMu.RUnlock()
	return m.runtime
}

// registerEndpoints wires the kind-specific handlers.
func (m *Module) registerEndpoints() {
	switch m.kind {
	case EUDM:
		m.server.HandleDual(PathUDMGenerateAV, m.endpoint(m.handleGenerateAV))
		m.server.HandleDual(PathUDMResync, m.endpoint(m.handleResync))
		// The batch endpoint is a maintenance path (the AV pool refill),
		// not a served request: it bypasses the endpoint wrapper so the
		// L_F/L_T recorders keep measuring only the paper's request path.
		m.server.HandleDual(PathUDMGenerateAVBatch,
			sbi.BinHandler(func(ctx context.Context, req *UDMGenerateAVBatchRequest) (*UDMGenerateAVBatchResponse, error) {
				return m.GenerateAVBatch(ctx, req)
			}))
	case EAUSF:
		m.server.HandleDual(PathAUSFDeriveSE, m.endpoint(m.handleDeriveSE))
	case EAMF:
		m.server.HandleDual(PathAMFDeriveKAMF, m.endpoint(m.handleDeriveKAMF))
	}
}

// endpointCall binds one served request's state as the Call the runtime
// runs. The pooled pointer passes through every layer — down to a
// switchless ring job — as-is, so a served request allocates no binding.
type endpointCall struct {
	m       *Module
	ctx     context.Context
	body    []byte
	handler func(ctx context.Context, ex Exec, body []byte) ([]byte, error)
	out     []byte
}

var endpointCallPool = sync.Pool{New: func() any { return new(endpointCall) }}

//shieldlint:hotpath
func (c *endpointCall) Run(ex Exec) error {
	m := c.m
	fn := m.env.JitterFor(c.ctx).LogNormal(m.profile.FnCycles, m.profile.FnSigma)
	if m.isolation == SGX {
		fn += m.profile.SGXExtraCycles
	}
	ex.Compute(fn)
	ex.Touch(m.profile.HeapBytes)
	var err error
	c.out, err = c.handler(c.ctx, ex, c.body)
	return err
}

// endpoint wraps a handler with the runtime's modelled request path and
// the module's calibrated functional cost, recording the L_F/L_T windows.
func (m *Module) endpoint(handler func(ctx context.Context, ex Exec, body []byte) ([]byte, error)) sbi.HandlerFunc {
	//shieldlint:hotpath
	return func(ctx context.Context, body []byte) ([]byte, error) {
		c := endpointCallPool.Get().(*endpointCall)
		c.m, c.ctx, c.body, c.handler = m, ctx, body, handler
		bd, err := m.serve(ctx, m.profile.InBytes, m.profile.OutBytes, c)
		out := c.out
		*c = endpointCall{}
		endpointCallPool.Put(c)
		if err != nil {
			return nil, err
		}
		model := m.env.Model
		m.functional.Add(model.Duration(bd.Functional))
		m.total.Add(model.Duration(bd.Total))
		m.serverSide.Add(model.Duration(bd.ServerSide))
		return out, nil
	}
}

// Handler request structs are pooled: the decoded fields are either
// copied strings or zero-copy views into the loaned body, nothing below
// the handler retains the struct, and every response carries its own
// backing (GenerateAVCachedInto, DeriveSE's single buffer, kdf outputs).
// Each struct is zeroed before going back so a partial decode cannot
// leak into the next request.
var (
	genAVReqPool      = sync.Pool{New: func() any { return new(UDMGenerateAVRequest) }}
	resyncReqPool     = sync.Pool{New: func() any { return new(UDMResyncRequest) }}
	deriveSEReqPool   = sync.Pool{New: func() any { return new(AUSFDeriveSERequest) }}
	deriveKAMFReqPool = sync.Pool{New: func() any { return new(AMFDeriveKAMFRequest) }}
)

// handleTyped decodes body into a pooled Req, runs fn on it and marshals
// the response in the request's codec.
//
//shieldlint:hotpath
func handleTyped[Req, Resp any](pool *sync.Pool, body []byte, fn func(req *Req) (*Resp, error)) ([]byte, error) {
	req := pool.Get().(*Req)
	var resp *Resp
	err := sbi.DecodeBody(body, req)
	if err != nil {
		err = sbi.Problem(400, "Bad Request", "MANDATORY_IE_INCORRECT", "decode: %v", err)
	} else {
		resp, err = fn(req)
	}
	var zero Req
	*req = zero
	pool.Put(req)
	if err != nil {
		return nil, err
	}
	return sbi.MarshalBodyLike(body, resp)
}

//shieldlint:hotpath
func (m *Module) handleGenerateAV(_ context.Context, ex Exec, body []byte) ([]byte, error) {
	return handleTyped(&genAVReqPool, body, func(req *UDMGenerateAVRequest) (*UDMGenerateAVResponse, error) {
		k, ok := ex.LoadSecret(subscriberSecret(req.SUPI))
		if !ok {
			return nil, sbi.Problem(404, "Not Found", "USER_NOT_FOUND", "%v: %s", ErrUnknownSubscriber, req.SUPI)
		}
		resp, err := GenerateAVCached(m.milCache, k, req)
		if err != nil {
			return nil, sbi.Problem(400, "Bad Request", "AV_GENERATION_PROBLEM", "%v", err)
		}
		return resp, nil
	})
}

//shieldlint:hotpath
func (m *Module) handleResync(_ context.Context, ex Exec, body []byte) ([]byte, error) {
	return handleTyped(&resyncReqPool, body, func(req *UDMResyncRequest) (*UDMResyncResponse, error) {
		k, ok := ex.LoadSecret(subscriberSecret(req.SUPI))
		if !ok {
			return nil, sbi.Problem(404, "Not Found", "USER_NOT_FOUND", "%v: %s", ErrUnknownSubscriber, req.SUPI)
		}
		resp, err := ResyncCached(m.milCache, k, req)
		if err != nil {
			return nil, sbi.Problem(403, "Forbidden", "SYNC_FAILURE", "%v", err)
		}
		return resp, nil
	})
}

//shieldlint:hotpath
func (m *Module) handleDeriveSE(_ context.Context, _ Exec, body []byte) ([]byte, error) {
	return handleTyped(&deriveSEReqPool, body, func(req *AUSFDeriveSERequest) (*AUSFDeriveSEResponse, error) {
		resp, err := DeriveSE(req)
		if err != nil {
			return nil, sbi.Problem(400, "Bad Request", "AV_GENERATION_PROBLEM", "%v", err)
		}
		return resp, nil
	})
}

//shieldlint:hotpath
func (m *Module) handleDeriveKAMF(_ context.Context, _ Exec, body []byte) ([]byte, error) {
	return handleTyped(&deriveKAMFReqPool, body, func(req *AMFDeriveKAMFRequest) (*AMFDeriveKAMFResponse, error) {
		resp, err := DeriveKAMF(req)
		if err != nil {
			return nil, sbi.Problem(400, "Bad Request", "AV_GENERATION_PROBLEM", "%v", err)
		}
		return resp, nil
	})
}

func subscriberSecret(supi string) string { return "subscriber-k:" + supi }

// GenerateAVBatch generates one HE AV per item inside a single boundary
// crossing: K× the AKA crypto, memory touches and shield bytes, but —
// under SGX — exactly one EENTER/EEXIT transition pair instead of the
// ~90 a cold served request costs. This is the enclave half of the eUDM
// AV precomputation pool; the module needs Config.ReserveBatchTCS so the
// batch entry finds a free TCS slot. Only meaningful for eUDM.
func (m *Module) GenerateAVBatch(ctx context.Context, req *UDMGenerateAVBatchRequest) (*UDMGenerateAVBatchResponse, error) {
	if m.kind != EUDM {
		return nil, fmt.Errorf("paka: %s does not generate authentication vectors", m.kind)
	}
	k := len(req.Items)
	resp := &UDMGenerateAVBatchResponse{}
	if k == 0 {
		return resp, nil
	}
	// The whole refill derives into one backing array and one vector
	// slice: two allocations per batch instead of one 80-byte backing,
	// one response struct and one secret-name string per vector.
	c := avBatchCallPool.Get().(*avBatchCall)
	*c = avBatchCall{m: m, ctx: ctx, req: req, resp: resp, backing: make([]byte, k*AVBackingBytes)}
	resp.Vectors = make([]UDMGenerateAVResponse, k)
	err := m.rt().DoBatch(ctx, k*m.profile.InBytes, k*m.profile.OutBytes, c)
	*c = avBatchCall{}
	avBatchCallPool.Put(c)
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// avBatchCall binds one AV-pool refill as the Call the runtime runs in a
// single crossing; pooled like endpointCall.
type avBatchCall struct {
	m       *Module
	ctx     context.Context
	req     *UDMGenerateAVBatchRequest
	resp    *UDMGenerateAVBatchResponse
	backing []byte
}

var avBatchCallPool = sync.Pool{New: func() any { return new(avBatchCall) }}

func (c *avBatchCall) Run(ex Exec) error {
	m := c.m
	// A refill is per-SUPI: reuse the key lookup (and its secret-name
	// string) across consecutive items for the same subscriber.
	var key []byte
	lastSUPI := ""
	for i := range c.req.Items {
		item := &c.req.Items[i]
		fn := m.env.JitterFor(c.ctx).LogNormal(m.profile.FnCycles, m.profile.FnSigma)
		if m.isolation == SGX {
			fn += m.profile.SGXExtraCycles
		}
		ex.Compute(fn)
		ex.Touch(m.profile.HeapBytes)
		if i == 0 || item.SUPI != lastSUPI {
			var ok bool
			key, ok = ex.LoadSecret(subscriberSecret(item.SUPI))
			if !ok {
				return sbi.Problem(404, "Not Found", "USER_NOT_FOUND", "%v: %s", ErrUnknownSubscriber, item.SUPI)
			}
			lastSUPI = item.SUPI
		}
		av := &c.resp.Vectors[i]
		AVInto(c.backing[i*AVBackingBytes:(i+1)*AVBackingBytes], av)
		if err := GenerateAVCachedInto(m.milCache, key, item, av); err != nil {
			return sbi.Problem(400, "Bad Request", "AV_GENERATION_PROBLEM", "%v", err)
		}
	}
	return nil
}

// storeSecret is the maintenance Call that places one secret in the
// runtime's memory (provisioning and crash-restart recovery).
type storeSecret struct {
	name string
	data []byte
}

func (s *storeSecret) Run(ex Exec) error {
	ex.StoreSecret(s.name, s.data)
	return nil
}

// ProvisionSubscriber installs a subscriber's long-term key into the
// module's memory — inside the enclave when SGX-isolated, so the key
// never appears in attacker-visible memory afterwards. Only meaningful
// for the eUDM module.
func (m *Module) ProvisionSubscriber(ctx context.Context, supi string, k []byte) error {
	if m.kind != EUDM {
		return fmt.Errorf("paka: %s does not hold subscriber keys", m.kind)
	}
	name := subscriberSecret(supi)
	if err := m.rt().Do(ctx, &storeSecret{name: name, data: k}); err != nil {
		return fmt.Errorf("paka: provision %s: %w", supi, err)
	}
	// The key may have changed (UDR re-provision): any cached MILENAGE
	// schedule for this subscriber is now stale.
	m.milCache.Invalidate(supi)
	m.secretMu.Lock()
	m.secretNames = append(m.secretNames, name)
	m.secretMu.Unlock()

	// Keep a host-side sealed backup so a crash-restarted enclave (same
	// measurement, same platform) can recover the key without the UDR
	// round trip. Plain containers get no backup: their keys die with the
	// process and come back through the UDM re-provisioning path.
	if enc := m.Enclave(); enc != nil {
		blob, serr := enc.Seal(k, []byte(name))
		if serr != nil {
			return fmt.Errorf("paka: seal backup for %s: %w", supi, serr)
		}
		m.secretMu.Lock()
		m.sealed[name] = blob
		m.secretMu.Unlock()
	}
	return nil
}

// MemoryDump is the privileged attacker's view of the module's secret
// regions (the Key Issue 7 memory-introspection scenario): for a plain
// container it yields the plaintext keys; for an SGX module it yields MEE
// ciphertext.
func (m *Module) MemoryDump() map[string][]byte {
	m.secretMu.Lock()
	names := append([]string(nil), m.secretNames...)
	m.secretMu.Unlock()
	out := make(map[string][]byte, len(names))
	for _, name := range names {
		switch rt := m.rt().(type) {
		case *gramine.Instance:
			if d, ok := rt.Enclave().Introspect(name); ok {
				out[name] = d
			}
		case sevRuntime:
			if d, ok := rt.Introspect(name); ok {
				out[name] = d
			}
		case *nativeRuntime:
			if d, ok := rt.dump(name); ok {
				out[name] = d
			}
		}
	}
	return out
}

// Kind reports the module kind.
func (m *Module) Kind() ModuleKind { return m.kind }

// Isolation reports the module's deployment mode.
func (m *Module) Isolation() Isolation { return m.isolation }

// Profile returns the module's calibrated profile.
func (m *Module) Profile() Profile { return m.profile }

// ServiceName is the module's SBI service name (the replica-specific
// override when one was configured).
func (m *Module) ServiceName() string { return m.cfg.serviceName() }

// LoadDuration is the modelled deployment time (Fig. 7 when SGX).
func (m *Module) LoadDuration() time.Duration { return m.rt().LoadDuration() }

// Stats snapshots the module's SGX counters (zero for containers).
func (m *Module) Stats() sgx.StatsSnapshot { return m.rt().Stats() }

// AccrueUptime models the module staying deployed for d of virtual time.
func (m *Module) AccrueUptime(d time.Duration) { m.rt().AccrueUptime(d) }

// Warm reports whether the module has served its first request.
func (m *Module) Warm() bool { return m.rt().Warm() }

// HostTCBBytes approximates the host software a non-enclave deployment
// must additionally trust: kernel, container engine and system services.
// Used for the TCB comparison in the optimization ablation.
const HostTCBBytes = 4 << 30

// TCBBytes reports the module's trusted computing base: for SGX, the bytes
// measured into the enclave; for a plain container, the image plus the
// entire host software stack that can read its memory.
func (m *Module) TCBBytes() uint64 {
	switch rt := m.rt().(type) {
	case *gramine.Instance:
		return rt.TCBBytes()
	case sevRuntime:
		return rt.TCBBytes()
	default:
		return m.profile.ImageBytes + HostTCBBytes
	}
}

// Machine exposes the module's confidential VM; nil when not
// SEV-isolated.
func (m *Module) Machine() *sev.Machine {
	if rt, ok := m.rt().(sevRuntime); ok {
		return rt.Machine
	}
	return nil
}

// Enclave exposes the module's enclave for sealing/attestation; nil when
// not SGX-isolated.
func (m *Module) Enclave() *sgx.Enclave {
	if rt, ok := m.rt().(*gramine.Instance); ok {
		return rt.Enclave()
	}
	return nil
}

// WithSwitchless marks ctx's requests as willing to use the module's
// switchless ECALL ring when the module was deployed with
// Config.Switchless. Calls without the mark (and all calls to modules
// without a ring) take the classic ECALL path unchanged.
func WithSwitchless(ctx context.Context) context.Context {
	return sgx.WithSwitchless(ctx)
}

// RingOccupancy reports the instantaneous depth of the module's
// switchless submission ring: how many submitted calls the in-enclave
// dispatcher has not yet consumed. Zero when the module is not
// SGX-isolated or was deployed without Config.Switchless. The eUDM AV
// pool uses it as a coalescing hint to widen refill batches while
// demand is queued.
func (m *Module) RingOccupancy() int {
	if rt, ok := m.rt().(*gramine.Instance); ok {
		return rt.RingOccupancy()
	}
	return 0
}

// RingStats snapshots the switchless ring counters (zero-valued when no
// ring is attached).
func (m *Module) RingStats() sgx.RingStats {
	if rt, ok := m.rt().(*gramine.Instance); ok {
		return rt.RingStats()
	}
	return sgx.RingStats{}
}

// FunctionalLatency returns the recorder of module-side L_F samples.
func (m *Module) FunctionalLatency() *metrics.Recorder { return m.functional }

// TotalLatency returns the recorder of module-side L_T samples.
func (m *Module) TotalLatency() *metrics.Recorder { return m.total }

// ServerSideLatency returns the recorder of full server-side residence
// times (the per-request service time of the module).
func (m *Module) ServerSideLatency() *metrics.Recorder { return m.serverSide }

// ResetRecorders clears the latency recorders between experiment phases.
func (m *Module) ResetRecorders() {
	m.functional.Reset()
	m.total.Reset()
	m.serverSide.Reset()
}

// Stop deregisters and shuts the module down.
func (m *Module) Stop() {
	m.registry.Deregister(m.server.Name())
	m.dropSessions()
	m.rt().Shutdown()
}

// Restarts reports how many crash-restarts the module has survived.
func (m *Module) Restarts() uint64 { return m.restarts.Load() }

// Restart models a whole-NF crash and recovery: the current runtime is
// torn down (for SGX the enclave is destroyed, flushing every in-enclave
// secret) and an identical one is redeployed from the retained Config,
// re-paying the full load cost — the paper's Fig. 7 0.96–0.99 min enclave
// load penalty — against ctx's account in virtual time. SGX modules then
// recover their subscriber keys from the host-side sealed backups (same
// measurement on the same platform ⇒ same sealing key); plain containers
// come back empty and rely on the UDM's re-provisioning degradation path.
// Requests in flight on the old runtime fail transiently and are retried
// by the SBI resilience layer.
func (m *Module) Restart(ctx context.Context) error {
	m.restartMu.Lock()
	defer m.restartMu.Unlock()

	m.rt().Shutdown()

	var fresh Runtime
	switch m.isolation {
	case Container:
		fresh = newNativeRuntime(m.cfg.Env)
	case SGX:
		rt, err := buildSGXRuntime(ctx, m.cfg, m.profile)
		if err != nil {
			return fmt.Errorf("paka: restart %s: %w", m.kind, err)
		}
		fresh = rt
	default:
		return fmt.Errorf("paka: %s runtime does not support restart", m.isolation)
	}

	if inst, ok := fresh.(*gramine.Instance); ok {
		enc := inst.Enclave()
		m.secretMu.Lock()
		backups := make(map[string][]byte, len(m.sealed))
		for name, blob := range m.sealed {
			backups[name] = blob
		}
		m.secretMu.Unlock()
		for name, blob := range backups {
			k, err := enc.Unseal(blob, []byte(name))
			if err != nil {
				fresh.Shutdown()
				return fmt.Errorf("paka: restart %s: recover %s: %w", m.kind, name, err)
			}
			if err := fresh.Do(ctx, &storeSecret{name: name, data: k}); err != nil {
				fresh.Shutdown()
				return fmt.Errorf("paka: restart %s: restore %s: %w", m.kind, name, err)
			}
		}
	}

	m.rtMu.Lock()
	m.runtime = fresh
	m.rtMu.Unlock()
	// Cached key schedules model in-enclave state and died with the old
	// runtime; the first AV per subscriber after recovery rebuilds them.
	m.milCache.Reset()
	// Keep-alive sessions died with the old runtime; serve() also drops
	// them lazily on runtime mismatch, this just frees the map eagerly.
	m.dropSessions()
	m.restarts.Add(1)
	return nil
}
