package curve25519

import (
	"bytes"
	"crypto/ecdh"
	"encoding/hex"
	"errors"
	"math/big"
	"math/rand"
	"testing"
)

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustTable(t testing.TB, u []byte) *Table {
	t.Helper()
	tb, err := NewTable(u)
	if err != nil {
		t.Fatalf("NewTable(%x): %v", u, err)
	}
	return tb
}

// ecdhPair is the crypto/ecdh reference for ScalarMultPair: the public key
// of scalar, and X25519(scalar, u) or the error ECDH returns.
func ecdhPair(t testing.TB, scalar, u []byte) (pub, shared []byte, err error) {
	t.Helper()
	priv, perr := ecdh.X25519().NewPrivateKey(scalar)
	if perr != nil {
		t.Fatal(perr)
	}
	peer, perr := ecdh.X25519().NewPublicKey(u)
	if perr != nil {
		t.Fatal(perr)
	}
	shared, err = priv.ECDH(peer)
	return priv.PublicKey().Bytes(), shared, err
}

// onCurve reports whether u (RFC 7748 decoding) is the u-coordinate of a
// Curve25519 point, u³ + 486662u² + u being a square mod p, computed
// independently of the package with math/big.
func onCurve(u []byte) bool {
	le := bytes.Clone(u)
	le[31] &= 127
	for i, j := 0, len(le)-1; i < j; i, j = i+1, j-1 {
		le[i], le[j] = le[j], le[i]
	}
	p := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))
	x := new(big.Int).Mod(new(big.Int).SetBytes(le), p)
	rhs := new(big.Int).Mul(x, x)
	rhs.Add(rhs, new(big.Int).Mul(big.NewInt(486662), x))
	rhs.Add(rhs, big.NewInt(1))
	rhs.Mul(rhs, x)
	rhs.Mod(rhs, p)
	return rhs.Sign() == 0 || big.Jacobi(rhs, p) == 1
}

// TestRFC7748Section61 runs the Diffie-Hellman example of RFC 7748 §6.1
// through the tables: each private key gives its public key through the
// base comb and the shared secret through the comb of the peer's key.
func TestRFC7748Section61(t *testing.T) {
	alicePriv := unhex(t, "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a")
	alicePub := unhex(t, "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a")
	bobPriv := unhex(t, "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb")
	bobPub := unhex(t, "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f")
	k := unhex(t, "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742")

	for _, c := range []struct {
		name            string
		priv, pub, peer []byte
	}{
		{"alice", alicePriv, alicePub, bobPub},
		{"bob", bobPriv, bobPub, alicePub},
	} {
		var pub, shared [32]byte
		ScalarMultPair(&pub, &shared, (*[32]byte)(c.priv), Base(), mustTable(t, c.peer))
		if !bytes.Equal(pub[:], c.pub) {
			t.Errorf("%s: public key %x, want %x", c.name, pub, c.pub)
		}
		if !bytes.Equal(shared[:], k) {
			t.Errorf("%s: shared secret %x, want %x", c.name, shared, k)
		}
	}
}

// TestRFC7748Section52 runs the two single-multiplication vectors of RFC
// 7748 §5.2. The first is a curve point. The second u-coordinate, bit 255
// set, is a point of the twist: no key pair has it as public key, and
// NewTable rejects it.
func TestRFC7748Section52(t *testing.T) {
	for _, v := range []struct{ scalar, u, out string }{
		{
			"a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
			"e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
			"c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552",
		},
		{
			"4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
			"e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493",
			"95cbde9476e8907d7ade45cb4b873f88b595a68799fa152e6f8f7647aac7957c",
		},
	} {
		scalar, u, want := unhex(t, v.scalar), unhex(t, v.u), unhex(t, v.out)
		tb, err := NewTable(u)
		if !onCurve(u) {
			if !errors.Is(err, ErrNotOnCurve) {
				t.Errorf("NewTable(twist point %s) = %v, want ErrNotOnCurve", v.u, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("NewTable(%s): %v", v.u, err)
		}
		var pub, shared [32]byte
		ScalarMultPair(&pub, &shared, (*[32]byte)(scalar), Base(), tb)
		if !bytes.Equal(shared[:], want) {
			t.Errorf("X25519(%s, %s) = %x, want %x", v.scalar, v.u, shared, want)
		}
	}
}

// TestScalarMultPairMatchesECDH compares both outputs against crypto/ecdh
// for seeded scalars and keys: keys from key pairs, keys with a torsion
// component added, and raw random u-coordinates (about half of them twist
// points, which only NewTable may reject).
func TestScalarMultPairMatchesECDH(t *testing.T) {
	rng := rand.New(rand.NewSource(7748))
	n := 300
	if testing.Short() {
		n = 40
	}
	rejected := 0
	for i := 0; i < n; i++ {
		var scalar, other [32]byte
		rng.Read(scalar[:])
		rng.Read(other[:])
		var u []byte
		switch i % 3 {
		case 0:
			priv, err := ecdh.X25519().NewPrivateKey(other[:])
			if err != nil {
				t.Fatal(err)
			}
			u = priv.PublicKey().Bytes()
		case 1:
			u = withTorsion(t, other[:], lowOrderPoints(t)[2+i%2])
		default:
			u = other[:]
		}
		tb, err := NewTable(u)
		if err != nil {
			if !errors.Is(err, ErrNotOnCurve) || onCurve(u) {
				t.Fatalf("NewTable(%x) = %v, but u is on the curve", u, err)
			}
			rejected++
			continue
		}
		if !onCurve(u) {
			t.Fatalf("NewTable(%x) accepted a twist point", u)
		}
		var pub, shared [32]byte
		ScalarMultPair(&pub, &shared, &scalar, Base(), tb)
		wantPub, wantShared, err := ecdhPair(t, scalar[:], u)
		if err != nil {
			t.Fatalf("ecdh(%x, %x): %v", scalar, u, err)
		}
		if !bytes.Equal(pub[:], wantPub) || !bytes.Equal(shared[:], wantShared) {
			t.Fatalf("scalar %x, u %x:\n got %x %x\nwant %x %x", scalar, u, pub, shared, wantPub, wantShared)
		}
	}
	if rejected == 0 || rejected > n/2 {
		t.Fatalf("%d of %d keys rejected; expected about a sixth (random u off the curve)", rejected, n)
	}
}

// lowOrderPoints returns libsodium's blocklist of canonical low-order
// u-coordinates: 0, 1, the two points of order 8, and p−1.
func lowOrderPoints(t testing.TB) [][]byte {
	p := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))
	o8a, _ := new(big.Int).SetString("325606250916557431795983626356110631294008115727848805560023387167927233504", 10)
	o8b, _ := new(big.Int).SetString("39382357235489614581723060781553021112529911719440698176882885853963445705823", 10)
	var out [][]byte
	for _, v := range []*big.Int{big.NewInt(0), big.NewInt(1), o8a, o8b, new(big.Int).Sub(p, big.NewInt(1))} {
		out = append(out, leBytes(v))
	}
	return out
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

// withTorsion returns the u-coordinate of P + T, for P the key of the
// private key priv and T the low-order point with u-coordinate low.
func withTorsion(t testing.TB, priv, low []byte) []byte {
	t.Helper()
	k, err := ecdh.X25519().NewPrivateKey(priv)
	if err != nil {
		t.Fatal(err)
	}
	tp, tt := mustTable(t, k.PublicKey().Bytes()), mustTable(t, low)
	var p, q point
	var one [64]int8
	one[0] = 1
	tp.mul(&p, &one)
	tt.mul(&q, &one)
	var qc affineCached
	qc.FromP3(&q)
	var sum projP1xP1
	p.fromP1xP1(sum.AddAffine(&p, &qc))
	// u = (Z+Y)/(Z−Y)
	var n, d = p.z, p.z
	n.Add(&n, &p.y)
	d.Subtract(&d, &p.y)
	n.Multiply(&n, d.Invert(&d))
	return n.Bytes()
}

// TestLowOrderKeys covers libsodium's low-order blocklist with its
// non-canonical encodings (u ≥ p, bit 255 set): crypto/ecdh returns an
// error for each, and the table path either yields an all-zero shared
// secret there too or, for u = −1 only, refuses to build the table.
func TestLowOrderKeys(t *testing.T) {
	var keys [][]byte
	p := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))
	for i, u := range lowOrderPoints(t) {
		keys = append(keys, u)
		high := bytes.Clone(u)
		high[31] |= 0x80
		keys = append(keys, high)
		if i < 2 { // p and p+1 still fit below 2^255
			keys = append(keys, leBytes(new(big.Int).Add(p, big.NewInt(int64(i)))))
		}
	}
	minusOne := string(lowOrderPoints(t)[4])
	var scalar [32]byte
	rand.New(rand.NewSource(1)).Read(scalar[:])
	for _, u := range keys {
		_, _, refErr := ecdhPair(t, scalar[:], u)
		if refErr == nil {
			t.Fatalf("crypto/ecdh accepted low-order key %x", u)
		}
		tb, err := NewTable(u)
		canon := bytes.Clone(u)
		canon[31] &= 127
		if err != nil {
			if string(canon) != minusOne {
				t.Fatalf("NewTable(%x): %v; only u = −1 may be rejected", u, err)
			}
			continue
		}
		var pub, shared [32]byte
		ScalarMultPair(&pub, &shared, &scalar, Base(), tb)
		if shared != [32]byte{} {
			t.Fatalf("low-order key %x: shared secret %x, want all zero", u, shared)
		}
	}
}

func TestNewTableRejectsMinusOne(t *testing.T) {
	u := lowOrderPoints(t)[4]
	if _, err := NewTable(u); !errors.Is(err, ErrNotOnCurve) {
		t.Fatalf("NewTable(p−1) = %v, want ErrNotOnCurve", err)
	}
	if _, err := NewTable(u[:31]); err == nil {
		t.Fatal("NewTable accepted a 31-byte key")
	}
}

func TestScalarMultPairAllocs(t *testing.T) {
	tb := Base()
	var a, b, k [32]byte
	k[3] = 1
	if n := testing.AllocsPerRun(20, func() { ScalarMultPair(&a, &b, &k, tb, tb) }); n != 0 {
		t.Fatalf("ScalarMultPair allocates %.1f times per call, want 0", n)
	}
}

func BenchmarkScalarMultPair(b *testing.B) {
	tb := Base()
	var out1, out2, k [32]byte
	k[7] = 9
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ScalarMultPair(&out1, &out2, &k, tb, tb)
	}
}

func BenchmarkNewTable(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewTable(basePoint[:]); err != nil {
			b.Fatal(err)
		}
	}
}
