package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"shield5g/internal/admission"
	"shield5g/internal/deploy"
	"shield5g/internal/hmee/sgx"
	"shield5g/internal/nf/udm"
	"shield5g/internal/sbi"
)

// counters is a snapshot of every counter the layers export, summed over
// every shard of the slice (Slice.Modules and the top-level stats fields
// are shard 0 only), plus the Go runtime's allocation and GC counters.
type counters struct {
	enclave sgx.StatsSnapshot
	ring    sgx.RingStats
	pool    udm.AVPoolStats
	adm     admission.Stats
	resil   sbi.ResilienceStats
	sheds   uint64

	mallocs, bytes  uint64
	numGC, pauseNs  uint64
	gcCPU, totalCPU float64
}

// enclaveTotals sums the enclave counters over every module of every
// shard.
func enclaveTotals(s *deploy.Slice) sgx.StatsSnapshot {
	var t sgx.StatsSnapshot
	for _, sh := range s.Shards {
		for _, m := range sh.Modules {
			st := m.Stats()
			t.EENTER += st.EENTER
			t.EEXIT += st.EEXIT
			t.AEX += st.AEX
			t.ERESUME += st.ERESUME
			t.ECALLs += st.ECALLs
			t.OCALLs += st.OCALLs
			t.PageFaults += st.PageFaults
		}
	}
	return t
}

func readSlice(s *deploy.Slice, c *counters) {
	c.enclave = enclaveTotals(s)
	c.ring = sgx.RingStats{}
	for _, sh := range s.Shards {
		for _, m := range sh.Modules {
			rs := m.RingStats()
			c.ring.Submitted += rs.Submitted
			c.ring.Doorbells += rs.Doorbells
			c.ring.Parks += rs.Parks
			c.ring.Backpressure += rs.Backpressure
		}
	}
	c.pool = udm.AVPoolStats{}
	for _, st := range s.ShardAVPoolStats() {
		c.pool.Hits += st.Hits
		c.pool.Misses += st.Misses
		c.pool.Refills += st.Refills
		c.pool.Invalidated += st.Invalidated
		c.pool.Prewarmed += st.Prewarmed
		c.pool.Pooled += st.Pooled
	}
	c.adm = admission.Stats{}
	for _, st := range s.ShardAdmissionStats() {
		for i := range st.Admitted {
			c.adm.Admitted[i] += st.Admitted[i]
			c.adm.Dropped[i] += st.Dropped[i]
		}
	}
	c.resil = s.ResilienceStats()
	c.sheds = 0
	for _, st := range s.OverloadStats() {
		c.sheds += st.TotalShed()
	}
}

func readRuntime(c *counters) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.bytes = ms.Mallocs, ms.TotalAlloc
	c.numGC, c.pauseNs = uint64(ms.NumGC), ms.PauseTotalNs
	// The GC CPU share comes from the runtime's own CPU-class estimates.
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	c.gcCPU = samples[0].Value.Float64()
	c.totalCPU = samples[1].Value.Float64()
}

// beginWindow snapshots counters at the opening of a timed window. The
// runtime is read last, so the snapshot's own allocations fall outside.
func beginWindow(s *deploy.Slice) counters {
	var c counters
	readSlice(s, &c)
	readRuntime(&c)
	return c
}

// endWindow snapshots counters at the close of a timed window, runtime
// first for the same reason.
func endWindow(s *deploy.Slice) counters {
	var c counters
	readRuntime(&c)
	readSlice(s, &c)
	return c
}

// delta is b - a for every counter. Pooled is a level, not a counter; the
// delta keeps b's level.
func delta(a, b counters) counters {
	d := counters{
		enclave: b.enclave.Sub(a.enclave),
		ring: sgx.RingStats{
			Submitted:    b.ring.Submitted - a.ring.Submitted,
			Doorbells:    b.ring.Doorbells - a.ring.Doorbells,
			Parks:        b.ring.Parks - a.ring.Parks,
			Backpressure: b.ring.Backpressure - a.ring.Backpressure,
		},
		pool: udm.AVPoolStats{
			Hits:        b.pool.Hits - a.pool.Hits,
			Misses:      b.pool.Misses - a.pool.Misses,
			Refills:     b.pool.Refills - a.pool.Refills,
			Invalidated: b.pool.Invalidated - a.pool.Invalidated,
			Prewarmed:   b.pool.Prewarmed - a.pool.Prewarmed,
			Pooled:      b.pool.Pooled,
		},
		resil: sbi.ResilienceStats{
			Attempts:  b.resil.Attempts - a.resil.Attempts,
			Retries:   b.resil.Retries - a.resil.Retries,
			Throttled: b.resil.Throttled - a.resil.Throttled,
		},
		sheds:    b.sheds - a.sheds,
		mallocs:  b.mallocs - a.mallocs,
		bytes:    b.bytes - a.bytes,
		numGC:    b.numGC - a.numGC,
		pauseNs:  b.pauseNs - a.pauseNs,
		gcCPU:    b.gcCPU - a.gcCPU,
		totalCPU: b.totalCPU - a.totalCPU,
	}
	d.resil.Breaker.Opens = b.resil.Breaker.Opens - a.resil.Breaker.Opens
	for i := range d.adm.Admitted {
		d.adm.Admitted[i] = b.adm.Admitted[i] - a.adm.Admitted[i]
		d.adm.Dropped[i] = b.adm.Dropped[i] - a.adm.Dropped[i]
	}
	return d
}

// processCPU is the CPU time every thread of the process has used. Unlike
// wall time it excludes the time a virtual machine's CPUs are taken away
// by the hypervisor (steal), which on a shared host moves wall figures
// far more than any code change.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
