package deploy

// The slice golden pins what NewSlice builds and how the built slice
// behaves, byte for byte, under seeded entropy: the NRF profiles and SBI
// service set, the construction cost, the root jitter position after
// deployment, sequential and parallel registration figures, and per-lane
// outputs of a sharded core. Any refactor of the composition layer must
// leave testdata/slice_golden.txt unchanged; rewrite it with
// `go test ./internal/deploy -run TestSliceGolden -update` only when a
// behaviour change is intended.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"io"
	mrand "math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"shield5g/internal/crypto/milenage"
	"shield5g/internal/crypto/suci"
	"shield5g/internal/gnb"
	"shield5g/internal/nf/amf"
	"shield5g/internal/nf/ausf"
	"shield5g/internal/nf/nrf"
	"shield5g/internal/nf/smf"
	"shield5g/internal/nf/udm"
	"shield5g/internal/nf/upf"
	"shield5g/internal/paka"
	"shield5g/internal/sbi"
	"shield5g/internal/simclock"
	"shield5g/internal/ue"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/slice_golden.txt from the current code")

const goldenPath = "testdata/slice_golden.txt"

// goldenSeed seeds every golden slice: its virtual-time jitter, its
// entropy reader and its subscribers' UE entropy.
const goldenSeed = 23

// Side jitter streams: work the golden does for observation only (NRF
// queries) or the sharded run draws from streams the root sequence never
// touches, so neither depends on, nor disturbs, the root position.
const (
	observeStream = 900
	shardedStream = 901
)

func TestSliceGolden(t *testing.T) {
	var b bytes.Buffer
	for _, iso := range []paka.Isolation{paka.Monolithic, paka.Container, paka.SGX, paka.SEV} {
		for _, replicas := range []int{0, 1} {
			writeSingletonGolden(t, &b, iso, replicas)
		}
	}
	for _, iso := range []paka.Isolation{paka.Container, paka.SGX} {
		writeShardedGolden(t, &b, iso, 4)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(got) && i < len(wantLines); i++ {
			if got[i] != wantLines[i] {
				t.Fatalf("slice golden drifted at line %d:\n got  %s\n want %s", i+1, got[i], wantLines[i])
			}
		}
		t.Fatalf("slice golden drifted: %d lines, want %d", len(got), len(wantLines))
	}
}

// goldenSlice deploys a seeded slice, charging construction to acct.
func goldenSlice(t *testing.T, iso paka.Isolation, replicas int, acct *simclock.Account) *Slice {
	t.Helper()
	ctx := simclock.WithAccount(context.Background(), acct)
	s, err := NewSlice(ctx, SliceConfig{
		Isolation: iso, Seed: goldenSeed, Replicas: replicas,
		Entropy: &lockedReader{r: mrand.New(mrand.NewSource(goldenSeed))},
	})
	if err != nil {
		t.Fatalf("NewSlice(%s, replicas=%d): %v", iso, replicas, err)
	}
	t.Cleanup(s.Stop)
	return s
}

// lockedReader serialises a seeded reader: the UDM draws RANDs from the
// slice entropy on every worker of a parallel run.
type lockedReader struct {
	mu sync.Mutex
	r  io.Reader
}

func (l *lockedReader) Read(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Read(p)
}

// goldenUEs provisions n subscribers with index-derived credentials and
// seeded UE entropy, sequentially and with a fresh account each, so the
// root jitter sequence they consume is fixed.
func goldenUEs(t *testing.T, s *Slice, base, n int) []*ue.UE {
	t.Helper()
	out := make([]*ue.UE, n)
	for i := range out {
		idx := base + i
		supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: fmt.Sprintf("%010d", idx)}
		k := make([]byte, 16)
		k[0], k[1], k[15] = byte(idx), byte(idx>>8), 0xa5
		opc, err := milenage.ComputeOPc(k, make([]byte, 16))
		if err != nil {
			t.Fatal(err)
		}
		ctx := simclock.WithAccount(context.Background(), &simclock.Account{})
		if err := s.ProvisionSubscriber(ctx, supi, k, opc); err != nil {
			t.Fatalf("provision %s: %v", supi, err)
		}
		device, err := ue.New(ue.Config{
			SUPI: supi, K: k, OPc: opc,
			HomeNetworkPublicKey: s.HomeNetworkKey.PublicKey(),
			HomeNetworkKeyID:     s.HomeNetworkKey.ID,
			Env:                  s.Env,
			Entropy:              mrand.New(mrand.NewSource(int64(idx))),
		})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = device
	}
	return out
}

// keyDigest hashes a registered device's next protected uplink: the NAS
// integrity and ciphering keys derive from K_AMF, which derives from the
// same CK/IK/RAND as the RES* the AUSF accepted, so the digest pins the
// AKA outputs of the registration. Building the uplink charges a fixed
// cost and draws no jitter.
func keyDigest(t *testing.T, h hash.Hash, device *ue.UE) {
	t.Helper()
	pdu, err := device.BuildDeregistrationRequest(context.Background())
	if err != nil {
		t.Fatalf("protected uplink for %s: %v", device.SUPIString(), err)
	}
	h.Write([]byte(device.SUPIString()))
	h.Write(pdu)
}

func writeSingletonGolden(t *testing.T, b *bytes.Buffer, iso paka.Isolation, replicas int) {
	t.Helper()
	var build simclock.Account
	s := goldenSlice(t, iso, replicas, &build)
	fmt.Fprintf(b, "== %s replicas=%d\n", iso, replicas)
	fmt.Fprintf(b, "construction_cycles %d\n", build.Total())

	seq := goldenUEs(t, s, 100, 3)
	mass := goldenUEs(t, s, 200, 16)
	fmt.Fprintf(b, "root_jitter_next %d\n", s.Env.Jitter.Uint64n(1<<62))

	// NRF and registry, observed off the root sequence.
	obs := simclock.WithJitter(simclock.WithAccount(context.Background(), &simclock.Account{}),
		s.Env.Jitter.Stream(observeStream))
	client := sbi.NewClient("golden", s.Env, s.Registry)
	for _, nfType := range []string{udm.NFType, ausf.NFType, amf.NFType, smf.NFType, upf.NFType} {
		var resp nrf.DiscoverResponse
		if err := client.Post(obs, nrf.ServiceName, nrf.PathDiscover, &nrf.DiscoverRequest{NFType: nfType}, &resp); err != nil {
			t.Fatalf("discover %s: %v", nfType, err)
		}
		for _, p := range resp.Profiles {
			fmt.Fprintf(b, "nrf %s %s %s hmee=%t\n", p.NFType, p.InstanceID, p.Service, p.HMEE)
		}
	}
	names := s.Registry.Names()
	sort.Strings(names)
	fmt.Fprintf(b, "services %s\n", strings.Join(names, " "))

	// Three sequential registrations on the root sequence.
	digest := sha256.New()
	for i, device := range seq {
		var acct simclock.Account
		ctx := simclock.WithAccount(context.Background(), &acct)
		if _, err := s.GNB.RegisterUE(ctx, device); err != nil {
			t.Fatalf("RegisterUE %d: %v", i, err)
		}
		fmt.Fprintf(b, "setup_cycles[%d] %d\n", i, acct.Total())
		keyDigest(t, digest, device)
	}
	fmt.Fprintf(b, "seq_key_digest %x\n", digest.Sum(nil))

	// A two-worker run: per-worker streams make it interleaving-free.
	before := moduleTransitions(s)
	res, err := s.GNB.RegisterManyWith(context.Background(), gnb.MassOptions{
		N:           len(mass),
		NewUE:       func(i int) (*ue.UE, error) { return mass[i], nil },
		Parallelism: 2,
	})
	if err != nil {
		t.Fatalf("RegisterManyWith: %v", err)
	}
	fmt.Fprintf(b, "mass registered=%d failed=%d virtual=%d\n", res.Registered, res.Failed, res.Virtual)
	after := moduleTransitions(s)
	for _, kind := range paka.Kinds() {
		fmt.Fprintf(b, "mass_transitions %s %d\n", kind, after[kind]-before[kind])
	}
}

func writeShardedGolden(t *testing.T, b *bytes.Buffer, iso paka.Isolation, replicas int) {
	t.Helper()
	var build simclock.Account
	s := goldenSlice(t, iso, replicas, &build)
	fmt.Fprintf(b, "== %s replicas=%d\n", iso, replicas)
	devices := goldenUEs(t, s, 300, 24)

	// Sequential on a side stream: independent of the root position,
	// which construction order is free to move.
	ctx := simclock.WithJitter(context.Background(), s.Env.Jitter.Stream(shardedStream))
	res, err := s.GNB.RegisterManyWith(ctx, gnb.MassOptions{
		N:     len(devices),
		NewUE: func(i int) (*ue.UE, error) { return devices[i], nil },
	})
	if err != nil {
		t.Fatalf("RegisterManyWith: %v", err)
	}
	fmt.Fprintf(b, "mass registered=%d failed=%d\n", res.Registered, res.Failed)
	lanes := make([]hash.Hash, len(res.ShardStats))
	for i := range lanes {
		lanes[i] = sha256.New()
	}
	for _, device := range devices {
		keyDigest(t, lanes[s.GNB.ShardOf(device.SUPIString())], device)
	}
	for i, st := range res.ShardStats {
		sum := st.SetupTimes.Summarize()
		fmt.Fprintf(b, "lane[%d] registered=%d failed=%d busy=%d median=%d p99=%d keys=%x\n",
			i, st.Registered, st.Failed, st.Busy, sum.Median, sum.P99, lanes[i].Sum(nil))
	}
}

// moduleTransitions sums EENTER+EEXIT per module kind across every shard.
func moduleTransitions(s *Slice) map[paka.ModuleKind]uint64 {
	out := make(map[paka.ModuleKind]uint64)
	for _, shard := range s.Shards {
		for kind, m := range shard.Modules {
			st := m.Stats()
			out[kind] += st.EENTER + st.EEXIT
		}
	}
	return out
}
