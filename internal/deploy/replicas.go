// Core replica construction. Every slice runs its authentication chain as
// one or more vertical replicas (AMF -> AUSF -> UDM -> P-AKA modules each)
// behind SUPI-affinity consistent-hash routing at the gNB; a singleton
// core is a fleet of one shard. The NRF, UDR, SMF and UPF stay shared —
// only the authentication chain is replicated, because it is the chain
// the paper shields and the chain a signaling storm saturates.
//
// Shard 0 keeps the base service names and resolves its chain through
// NRF discovery at construction — the paper's HMEE trust-domain lookup.
// Replicas r >= 1 bind by service name: discovery answers with the lowest
// instance ID, which is always shard 0's ("udm-1" < "udm-r1-1"), so the
// NRF cannot address them. Either way every binding is fixed once the
// slice is up: the NRF (via the topo.Builder) only ever influences WHICH
// shard a SUPI routes to, never how a shard reaches its own members — so
// a dead NRF cannot take registration down.
package deploy

import (
	"context"
	"crypto/ed25519"
	"fmt"

	"shield5g/internal/admission"
	"shield5g/internal/nf/amf"
	"shield5g/internal/nf/ausf"
	"shield5g/internal/nf/udm"
	"shield5g/internal/paka"
)

// shardSuffix names shard r's services: shard 0 keeps the base names
// ("udm", "ausf", "eudm-paka", ...) so tooling built for the singleton
// keeps working; replicas r >= 1 append "-r<N>".
func shardSuffix(r int) string {
	if r == 0 {
		return ""
	}
	return fmt.Sprintf("-r%d", r)
}

// staticBinding is the peer service replica r binds its client to: ""
// for shard 0, which discovers that same service through the NRF.
func staticBinding(r int, service string) string {
	if r == 0 {
		return ""
	}
	return service
}

// buildShard constructs replica r up to its AUSF: its P-AKA module set
// (or monolithic environments), the VNF-side module clients, the UDM and
// the AUSF. The shard's AMF comes later, from buildAMF, once the shared
// SMF it discovers is up.
func (s *Slice) buildShard(ctx context.Context, r int, signKey ed25519.PrivateKey, hmee bool) (*CoreShard, error) {
	cfg := s.Config
	suffix := shardSuffix(r)
	shard := &CoreShard{
		Index:       r,
		Name:        fmt.Sprintf("shard-%d", r),
		UDMService:  udm.ServiceName + suffix,
		AUSFService: ausf.ServiceName + suffix,
	}

	var udmFns paka.UDMFunctions
	var ausfFns paka.AUSFFunctions
	if cfg.Isolation == paka.Monolithic {
		shard.MonoUDM = paka.NewMonolithicUDM(s.Env)
		udmFns, ausfFns = shard.MonoUDM, paka.NewMonolithicAUSF(s.Env)
	} else {
		shard.Modules = make(map[paka.ModuleKind]*paka.Module)
		for _, kind := range paka.Kinds() {
			m, err := paka.New(ctx, paka.Config{
				Kind:             kind,
				Service:          kind.ServiceName() + suffix,
				Isolation:        cfg.Isolation,
				Env:              s.Env,
				Platform:         s.Platform,
				Registry:         s.Registry,
				EnclaveSizeBytes: cfg.EnclaveSizeBytes,
				MaxThreads:       cfg.MaxThreads,
				DisablePreheat:   cfg.DisablePreheat,
				SignKey:          signKey,
				// Pool refills enter the enclave via batch ECALLs, which
				// need a TCS slot the resident threads do not hold.
				ReserveBatchTCS: kind == paka.EUDM && cfg.AVPoolDepth > 0,
				Switchless:      cfg.Switchless,
			})
			if err != nil {
				return nil, fmt.Errorf("deploy: %s module (shard %d): %w", kind, r, err)
			}
			shard.Modules[kind] = m
		}
		shard.RemoteUDM = paka.NewRemoteUDM(s.buildInvoker(shard.UDMService), s.Env, shard.Modules[paka.EUDM].ServiceName())
		shard.RemoteAUSF = paka.NewRemoteAUSF(s.buildInvoker(shard.AUSFService), s.Env, shard.Modules[paka.EAUSF].ServiceName())
		shard.RemoteAMF = paka.NewRemoteAMF(s.buildInvoker(amf.ServiceName+suffix), s.Env, shard.Modules[paka.EAMF].ServiceName())
		udmFns, ausfFns = shard.RemoteUDM, shard.RemoteAUSF
	}

	// Reprovision lets the UDM push a long-term key back into an
	// execution environment that lost its key store to a crash-restart
	// (the container runtime keeps no sealed backup).
	var reprovision func(ctx context.Context, supi string, k []byte) error
	var coalesce func() int
	if m, ok := shard.Modules[paka.EUDM]; ok {
		reprovision = func(ctx context.Context, supi string, k []byte) error {
			return m.ProvisionSubscriber(ctx, supi, k)
		}
		if cfg.Switchless {
			// Refill batches widen opportunistically with the demand
			// queued on the shard's own eUDM submission ring — cross-worker
			// call coalescing; shards never share a dispatcher.
			coalesce = m.RingOccupancy
		}
	}
	var err error
	if shard.UDM, err = udm.New(ctx, udm.Config{
		Env: s.Env, Registry: s.Registry, Invoker: s.buildInvoker(shard.UDMService),
		Functions: udmFns, HomeNetworkKey: s.HomeNetworkKey, HMEE: hmee, Entropy: s.entropy,
		Reprovision: reprovision, CoalesceHint: coalesce,
		AVPoolDepth: cfg.AVPoolDepth, AVBatchSize: cfg.AVBatchSize,
		ServiceName: shard.UDMService, InstanceID: shard.UDMService + "-1",
	}); err != nil {
		return nil, fmt.Errorf("deploy: UDM (shard %d): %w", r, err)
	}

	if shard.AUSF, err = ausf.New(ctx, ausf.Config{
		Env: s.Env, Registry: s.Registry, Invoker: s.buildInvoker(shard.AUSFService),
		Functions: ausfFns, HMEE: hmee,
		ServiceName: shard.AUSFService, InstanceID: shard.AUSFService + "-1",
		UDMService: staticBinding(r, shard.UDMService),
	}); err != nil {
		return nil, fmt.Errorf("deploy: AUSF (shard %d): %w", r, err)
	}
	return shard, nil
}

// buildAMF gives the shard its admission controller and AMF, bound to
// the shard's AUSF.
func (s *Slice) buildAMF(ctx context.Context, shard *CoreShard, hmee bool) error {
	if p := s.Config.Overload; p != nil && p.Admission != nil {
		// Each shard gets its OWN token buckets: a tenant's storm drains
		// only the buckets of the shards its shuffle shard routes to.
		acfg := *p.Admission
		if acfg.Clock == nil {
			acfg.Clock = s.Env.Clock
		}
		shard.Admission = admission.NewController(acfg)
	}
	var fns paka.AMFFunctions = shard.RemoteAMF
	if s.Config.Isolation == paka.Monolithic {
		fns = paka.NewMonolithicAMF(s.Env)
	}
	service := amf.ServiceName + shardSuffix(shard.Index)
	var err error
	if shard.AMF, err = amf.New(ctx, amf.Config{
		Env: s.Env, Registry: s.Registry, Invoker: s.buildInvoker(service),
		Functions: fns, MCC: s.Config.MCC, MNC: s.Config.MNC, HMEE: hmee,
		Admission:   shard.Admission,
		InstanceID:  service + "-1",
		AUSFService: staticBinding(shard.Index, shard.AUSFService),
	}); err != nil {
		return fmt.Errorf("deploy: AMF (shard %d): %w", shard.Index, err)
	}
	return nil
}
