package main

import (
	"math"
	"testing"
	"time"
)

func durations(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		// Reverse order, so the estimator has to sort.
		out[i] = time.Duration(n-i) * time.Microsecond
	}
	return out
}

func TestSupportedQuantileKeepsSupportedPercentile(t *testing.T) {
	// 1000 samples: rank(p99) = 990, exactly ten beyond it.
	q, ok := supportedQuantile(durations(1000), 0.99)
	if !ok || q.Q != 0.99 || q.Beyond != 10 || q.Value != 990*time.Microsecond {
		t.Fatalf("p99 of 1000 = %+v ok=%v, want Q 0.99, 10 beyond, 990us", q, ok)
	}
	q, ok = supportedQuantile(durations(1000), 0.5)
	if !ok || q.Value != 500*time.Microsecond || q.Beyond != 500 {
		t.Fatalf("p50 of 1000 = %+v, want 500us with 500 beyond", q)
	}
}

func TestSupportedQuantileFallsBackToHighestSupported(t *testing.T) {
	// 500 samples: p99 has only five beyond it, so the highest supported
	// percentile is rank 490 (p98), which has exactly ten.
	q, ok := supportedQuantile(durations(500), 0.99)
	if !ok {
		t.Fatal("500 samples support some percentile")
	}
	if q.Q != 0.98 || q.Beyond != 10 || q.Value != 490*time.Microsecond {
		t.Fatalf("fallback = %+v, want Q 0.98, 10 beyond, 490us", q)
	}
	// 999 samples: p99 is rank 990 with nine beyond, one short.
	if q, _ := supportedQuantile(durations(999), 0.99); q.Q >= 0.99 || q.Beyond != 10 {
		t.Fatalf("p99 of 999 = %+v, want a lower percentile with 10 beyond", q)
	}
}

func TestSupportedQuantileNeedsMoreThanTenSamples(t *testing.T) {
	if _, ok := supportedQuantile(durations(10), 0.5); ok {
		t.Fatal("ten samples cannot leave ten beyond any percentile")
	}
	if q, ok := supportedQuantile(durations(11), 0.5); !ok || q.Beyond != 10 || q.Value != time.Microsecond {
		t.Fatalf("11 samples = %+v ok=%v, want the minimum with 10 beyond", q, ok)
	}
}

func TestPerRegNormalisation(t *testing.T) {
	if got := perReg(5400, 10); got != 540 {
		t.Fatalf("perReg(5400, 10) = %v, want 540", got)
	}
	if got := perReg(1, 4); got != 0.25 {
		t.Fatalf("perReg(1, 4) = %v, want 0.25", got)
	}
	if got := perReg(100, 0); !math.IsNaN(got) {
		t.Fatalf("perReg with no registrations = %v, want NaN", got)
	}
	if got := frac(0, 0); got != 0 {
		t.Fatalf("frac of an idle layer = %v, want 0", got)
	}
	if got := frac(3, 12); got != 0.25 {
		t.Fatalf("frac(3, 12) = %v, want 0.25", got)
	}
}

func TestCounterDeltaNormalisesWindowOnly(t *testing.T) {
	var before, after counters
	before.enclave.EENTER, before.enclave.EEXIT = 1000, 990
	after.enclave.EENTER, after.enclave.EEXIT = 1000+2700, 990+2700
	before.mallocs, after.mallocs = 5_000_000, 5_000_000+150*10
	d := delta(before, after)
	if got := perReg(float64(d.enclave.EENTER+d.enclave.EEXIT), 10); got != 540 {
		t.Fatalf("transitions per reg = %v, want 540", got)
	}
	if got := perReg(float64(d.mallocs), 10); got != 150 {
		t.Fatalf("allocs per reg = %v, want 150 (setup allocations excluded)", got)
	}
}

func TestAttributionChargesInnermostInternalFrame(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "runtime.newobject", "shield5g/internal/paka.(*sgxRuntime).ServeRequestSwitchless.func1", "shield5g/internal/sbi.(*Server).dispatch"}, "paka"},
		{[]string{"runtime.selectgo", "shield5g/internal/hmee/sgx.(*Ring).park", "shield5g/internal/paka.(*Module).serve"}, "sgx"},
		{[]string{"shield5g/internal/sbi/codec.AppendBytes", "shield5g/internal/sbi.MarshalBody"}, "sbi.codec"},
		{[]string{"encoding/json.Marshal", "shield5g/internal/sbi.MarshalBody"}, "sbi"},
		{[]string{"crypto/ecdh.(*x25519Curve).ecdh", "shield5g/internal/crypto/suci.Conceal", "shield5g/internal/ue.(*UE).concealIdentity"}, "crypto"},
		{[]string{"shield5g/internal/crypto/milenage.(*Cache).Get"}, "crypto"},
		{[]string{"shield5g/internal/nf/udm.(*UDM).generate"}, "udm"},
		{[]string{"shield5g/internal/nf/udr.(*UDR).lookup"}, "udr"},
		{[]string{"shield5g/internal/hmee/gramine.(*Instance).Do"}, "gramine"},
		{[]string{"shield5g/internal/shard.(*Map[go.shape.string,*shield5g/internal/nf/amf.ueContext]).Load", "shield5g/internal/nf/amf.(*AMF).HandleUplinkNAS"}, "other"},
		{[]string{"shield5g/internal/nf/ausf.(*AUSF).Confirm"}, "ausf"},
		{[]string{"shield5g/internal/gnb.(*GNB).registerParallel.func1"}, "gnb"},
		{[]string{"shield5g/internal/uex.Fake"}, "other"},
		{[]string{"runtime.gcBgMarkWorker"}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestGapTimerSegmentsByDriverCall(t *testing.T) {
	g := newGapTimer(2, 8, 2)
	for call := 0; call < 2; call++ {
		for i := 0; i < 4; i++ {
			g.tick(i % 2)
		}
		g.closeSegment()
	}
	segs := g.segments()
	// Each call: two workers, two callbacks each, one gap each.
	if len(segs) != 2 || len(segs[0]) != 2 || len(segs[1]) != 2 {
		t.Fatalf("segments = %v, want two segments of two gaps", segs)
	}
}

func spin(d time.Duration) int {
	n := 0
	for t0 := time.Now(); time.Since(t0) < d; {
		n++
	}
	return n
}

func TestDecodeCPUProfileAttributesSamples(t *testing.T) {
	p, err := startCPUProfile()
	if err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(500 * time.Millisecond)
	byLayer, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	samples, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, fn := range s.stack {
			// The package is main in a build and its module path in a test.
			if fn == "main.spin" || fn == "shield5g/perfbench.spin" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no sample in spin among %d samples", len(samples))
	}
	if byLayer["other"] <= 0 {
		t.Fatalf("spin's samples should land in other, got %v", byLayer)
	}
}
