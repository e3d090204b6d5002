package suci

import (
	"bytes"
	"crypto/ecdh"
	"encoding/hex"
	"errors"
	"io"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"shield5g/internal/crypto/curve25519"
)

// concealReference is Conceal on crypto/ecdh: the ephemeral key pair is
// ecdh.NewPrivateKey over the same 32 entropy bytes, and each scalar
// multiplication a Montgomery ladder. The KDF, CTR and tag passes are the
// package's own, pinned by TestPooledPrimitivesMatchReference.
func concealReference(entropy []byte, supi SUPI, ri string, hnPub []byte, keyID byte) (*SUCI, error) {
	eph, err := ecdh.X25519().NewPrivateKey(entropy)
	if err != nil {
		return nil, err
	}
	peer, err := ecdh.X25519().NewPublicKey(hnPub)
	if err != nil {
		return nil, err
	}
	shared, err := eph.ECDH(peer)
	if err != nil {
		return nil, err
	}
	ephPub := eph.PublicKey().Bytes()
	var ks kdfScratch
	encKey, icb, macKey := deriveKeys(shared, ephPub, &ks)
	out := append(ephPub, make([]byte, len(supi.MSIN)+tagLen)...)
	ciphertext := out[len(ephPub) : len(ephPub)+len(supi.MSIN)]
	ctr(encKey, icb, ciphertext, []byte(supi.MSIN))
	computeTagInto(macKey, ciphertext, &ks.tag)
	copy(out[len(ephPub)+len(supi.MSIN):], ks.tag[:tagLen])
	return &SUCI{
		MCC: supi.MCC, MNC: supi.MNC, RoutingIndicator: ri,
		Scheme: SchemeProfileA, HomeKeyID: keyID, SchemeOutput: out,
	}, nil
}

// onCurve reports whether the X25519 public key u is a point of
// Curve25519 rather than of its twist (or u = −1, no affine Edwards
// point), computed with math/big: u³ + 486662u² + u is a square mod p.
func onCurve(u []byte) bool {
	p := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))
	x := new(big.Int).Mod(leInt(u), p)
	if new(big.Int).Add(x, big.NewInt(1)).Cmp(p) == 0 {
		return false
	}
	rhs := new(big.Int).Mul(x, x)
	rhs.Add(rhs, new(big.Int).Mul(big.NewInt(486662), x))
	rhs.Add(rhs, big.NewInt(1))
	rhs.Mul(rhs, x)
	rhs.Mod(rhs, p)
	return rhs.Sign() == 0 || big.Jacobi(rhs, p) == 1
}

// leInt decodes u as RFC 7748 does, bit 255 masked, without reduction.
func leInt(u []byte) *big.Int {
	be := make([]byte, 32)
	for i := range be {
		be[i] = u[31-i]
	}
	be[0] &= 127
	return new(big.Int).SetBytes(be)
}

func leBytes(v *big.Int) []byte {
	var be [32]byte
	v.FillBytes(be[:])
	le := make([]byte, 32)
	for i := range le {
		le[i] = be[31-i]
	}
	return le
}

// checkAgainstReference conceals testSUPI with entropy to key, through
// Conceal and through concealReference, and fails unless both error, or
// both give the same SUCI, or Conceal alone errors because key is no
// point of the curve. It returns Conceal's SUCI (nil on error).
func checkAgainstReference(t testing.TB, entropy, key []byte) *SUCI {
	t.Helper()
	got, err := Conceal(bytes.NewReader(entropy), testSUPI, "0000", key, 1)
	want, refErr := concealReference(entropy, testSUPI, "0000", key, 1)
	switch {
	case refErr != nil:
		if err == nil {
			t.Fatalf("key %x: crypto/ecdh fails (%v), Conceal accepts", key, refErr)
		}
	case err != nil:
		if !errors.Is(err, curve25519.ErrNotOnCurve) || onCurve(key) {
			t.Fatalf("key %x: Conceal: %v; only keys off the curve may be rejected", key, err)
		}
	case !bytes.Equal(got.SchemeOutput, want.SchemeOutput):
		t.Fatalf("entropy %x, key %x:\n got %x\nwant %x", entropy, key, got.SchemeOutput, want.SchemeOutput)
	}
	return got
}

// TestConcealMatchesECDHReference runs 10 000 seeded (entropy, key) pairs
// through Conceal and the crypto/ecdh reference: the scheme outputs are
// byte-identical and every SUCI deconceals. The keys, 100 of them, are
// each used for 100 consecutive pairs. The race-enabled run, ten times
// slower on this pure arithmetic, takes the first 1 000 pairs; the plain
// run takes all of them.
func TestConcealMatchesECDHReference(t *testing.T) {
	keys, perKey := 100, 100
	if raceEnabled {
		keys = 10
	}
	rng := rand.New(rand.NewSource(33501))
	for i := 0; i < keys; i++ {
		var raw [32]byte
		rng.Read(raw[:])
		k, err := HomeNetworkKeyFromBytes(raw[:], byte(i))
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < perKey; j++ {
			var entropy [32]byte
			rng.Read(entropy[:])
			sc := checkAgainstReference(t, entropy[:], k.PublicKey())
			if sc == nil {
				t.Fatalf("pair %d: Conceal rejected a generated key", i*perKey+j)
			}
			sc.HomeKeyID = k.ID
			if got, err := k.Deconceal(sc); err != nil || got != testSUPI {
				t.Fatalf("pair %d: Deconceal = %+v, %v", i*perKey+j, got, err)
			}
		}
	}
}

// TestConcealRFC7748Vectors conceals with RFC 7748 §6.1's private keys as
// entropy to the peer's public key: the ephemeral public key on the wire
// is the RFC's, and the SUCI matches the reference.
func TestConcealRFC7748Vectors(t *testing.T) {
	unhex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	alicePriv := unhex("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a")
	alicePub := unhex("8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a")
	bobPriv := unhex("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb")
	bobPub := unhex("de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f")
	for _, c := range []struct{ priv, pub, peer []byte }{
		{alicePriv, alicePub, bobPub},
		{bobPriv, bobPub, alicePub},
	} {
		sc := checkAgainstReference(t, c.priv, c.peer)
		if !bytes.Equal(sc.SchemeOutput[:ephemeralKeyLen], c.pub) {
			t.Fatalf("ephemeral public key %x, want %x", sc.SchemeOutput[:ephemeralKeyLen], c.pub)
		}
	}
}

// TestConcealEdgeCaseKeys covers the keys a ladder and a comb could
// disagree on: libsodium's low-order blocklist (0, 1, the two points of
// order 8, p−1), their non-canonical encodings (u ≥ p, bit 255 set), and
// sampled twist points. Each either matches crypto/ecdh, error included,
// or is rejected as off the curve; the low-order keys all fail.
func TestConcealEdgeCaseKeys(t *testing.T) {
	p := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))
	o8a, _ := new(big.Int).SetString("325606250916557431795983626356110631294008115727848805560023387167927233504", 10)
	o8b, _ := new(big.Int).SetString("39382357235489614581723060781553021112529911719440698176882885853963445705823", 10)
	var lowOrder [][]byte
	for _, v := range []*big.Int{big.NewInt(0), big.NewInt(1), o8a, o8b, new(big.Int).Sub(p, big.NewInt(1))} {
		u := leBytes(v)
		high := bytes.Clone(u)
		high[31] |= 0x80
		lowOrder = append(lowOrder, u, high)
		if v.Cmp(big.NewInt(19)) < 0 { // u + p still fits below 2^255
			lowOrder = append(lowOrder, leBytes(new(big.Int).Add(v, p)))
		}
	}
	rng := rand.New(rand.NewSource(25519))
	entropy := make([]byte, 32)
	for _, key := range lowOrder {
		rng.Read(entropy)
		if sc := checkAgainstReference(t, entropy, key); sc != nil {
			t.Fatalf("low-order key %x accepted", key)
		}
	}

	twist := 0
	for twist < 8 {
		key := make([]byte, 32)
		rng.Read(key)
		if onCurve(key) {
			continue
		}
		twist++
		rng.Read(entropy)
		checkAgainstReference(t, entropy, key)
		if _, err := Conceal(bytes.NewReader(entropy), testSUPI, "0000", key, 1); !errors.Is(err, curve25519.ErrNotOnCurve) {
			t.Fatalf("twist key %x: Conceal error %v, want ErrNotOnCurve", key, err)
		}
	}
}

// countingReader counts the bytes read from a seeded source.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestConcealReadsExactly32Bytes pins the entropy contract: one Conceal
// reads the 32-byte ephemeral scalar and nothing more, so a seeded
// reader reproduces the SUCI on every run.
func TestConcealReadsExactly32Bytes(t *testing.T) {
	k := testKey(t)
	var first []byte
	for run := 0; run < 8; run++ {
		r := &countingReader{r: rand.New(rand.NewSource(42))}
		sc, err := Conceal(r, testSUPI, "0000", k.PublicKey(), k.ID)
		if err != nil {
			t.Fatal(err)
		}
		if r.n != ephemeralKeyLen {
			t.Fatalf("run %d: Conceal read %d entropy bytes, want %d", run, r.n, ephemeralKeyLen)
		}
		if first == nil {
			first = sc.SchemeOutput
		} else if !bytes.Equal(sc.SchemeOutput, first) {
			t.Fatalf("run %d: same seed gave a different SUCI", run)
		}
	}
	if _, err := Conceal(bytes.NewReader(make([]byte, 31)), testSUPI, "0000", k.PublicKey(), k.ID); err == nil {
		t.Fatal("Conceal accepted 31 bytes of entropy")
	}
}

// TestGenerateHomeNetworkKeyReadsExactly32Bytes pins the same contract
// for the home-network key: a seeded entropy stream shared with later
// consumers (a slice's RAND draws) must not shift by a random extra byte.
func TestGenerateHomeNetworkKeyReadsExactly32Bytes(t *testing.T) {
	var first []byte
	for run := 0; run < 8; run++ {
		r := &countingReader{r: rand.New(rand.NewSource(42))}
		k, err := GenerateHomeNetworkKey(r, 1)
		if err != nil {
			t.Fatal(err)
		}
		if r.n != 32 {
			t.Fatalf("run %d: GenerateHomeNetworkKey read %d entropy bytes, want 32", run, r.n)
		}
		if first == nil {
			first = k.PublicKey()
		} else if !bytes.Equal(k.PublicKey(), first) {
			t.Fatalf("run %d: same seed gave a different key", run)
		}
	}
	if _, err := GenerateHomeNetworkKey(bytes.NewReader(make([]byte, 31)), 1); err == nil {
		t.Fatal("GenerateHomeNetworkKey accepted 31 bytes of entropy")
	}
}

// TestConcealAllocs pins Conceal at no more than six allocations (the
// output buffer, the SUCI, and the AES block among them) and the cached
// comb lookup at none.
func TestConcealAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	k := testKey(t)
	pub := k.PublicKey()
	r := rand.New(rand.NewSource(1))
	if _, err := Conceal(r, testSUPI, "0000", pub, k.ID); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Conceal(r, testSUPI, "0000", pub, k.ID); err != nil {
			t.Fatal(err)
		}
	}); n > 6 {
		t.Fatalf("Conceal: %.1f allocs, want <= 6", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := homeNetworkTable(pub); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("homeNetworkTable: %.1f allocs, want 0", n)
	}
}

// TestHomeNetworkTableCache checks that the comb cache shares one table
// per key, keeps the verdict on a key off the curve, and stays bounded
// while other keys keep arriving.
func TestHomeNetworkTableCache(t *testing.T) {
	k := testKey(t)
	a, err := homeNetworkTable(k.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := homeNetworkTable(k.PublicKey()); b != a {
		t.Fatal("second lookup built a second table")
	}

	twist := bytes.Repeat([]byte{0x02}, 32) // u = 0x0202…02
	if onCurve(twist) {
		t.Fatal("test key is on the curve; pick another twist point")
	}
	_, err1 := homeNetworkTable(twist)
	_, err2 := homeNetworkTable(twist)
	if !errors.Is(err1, curve25519.ErrNotOnCurve) || err2 != err1 {
		t.Fatalf("twist key verdicts %v, %v; want the same cached ErrNotOnCurve", err1, err2)
	}

	// Keys off the curve are cheap to cache: the verdict needs no comb.
	rng := rand.New(rand.NewSource(64))
	for i := 0; i < 3*maxHomeNetworkTables; {
		key := make([]byte, 32)
		rng.Read(key)
		if onCurve(key) {
			continue
		}
		i++
		if _, err := homeNetworkTable(key); !errors.Is(err, curve25519.ErrNotOnCurve) {
			t.Fatalf("twist key %x: %v", key, err)
		}
		hnTables.mu.Lock()
		n := len(hnTables.byKey)
		hnTables.mu.Unlock()
		if n > maxHomeNetworkTables {
			t.Fatalf("cache holds %d keys, over the bound %d", n, maxHomeNetworkTables)
		}
	}
}

// TestConcealConcurrentFirstUse has UEs of several slices conceal at
// once, each slice's key fresh to the cache: the first users of a key
// share one build, and every SUCI deconceals.
func TestConcealConcurrentFirstUse(t *testing.T) {
	const slices, uesPerSlice = 3, 4
	rng := rand.New(rand.NewSource(9))
	keys := make([]*HomeNetworkKey, slices)
	for i := range keys {
		var raw [32]byte
		rng.Read(raw[:])
		k, err := HomeNetworkKeyFromBytes(raw[:], byte(i))
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}
	var wg sync.WaitGroup
	errs := make(chan error, slices*uesPerSlice)
	for i := 0; i < slices*uesPerSlice; i++ {
		k := keys[i%slices]
		entropy := rand.New(rand.NewSource(int64(i)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc, err := Conceal(entropy, testSUPI, "0000", k.PublicKey(), k.ID)
			if err == nil {
				_, err = k.Deconceal(sc)
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
