package suci

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzConcealMatchesECDH takes 64 bytes, an ephemeral scalar and a
// home-network key (shorter inputs zero-padded, longer ones cut), and
// checks Conceal against the crypto/ecdh reference
// (checkAgainstReference): same SUCI, same failure, or a rejection of a
// key that is no point of the curve.
func FuzzConcealMatchesECDH(f *testing.F) {
	rng := rand.New(rand.NewSource(64))
	for i := 0; i < 4; i++ {
		seed := make([]byte, 64)
		rng.Read(seed)
		f.Add(seed)
	}
	k, err := HomeNetworkKeyFromBytes(bytes.Repeat([]byte{7}, 32), 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(bytes.Repeat([]byte{0x5a}, 32), k.PublicKey()...))
	f.Add(make([]byte, 64))                                                          // u = 0, low order
	f.Add(append(bytes.Repeat([]byte{0x11}, 32), bytes.Repeat([]byte{0x02}, 32)...)) // twist point
	f.Fuzz(func(t *testing.T, data []byte) {
		var in [64]byte
		copy(in[:], data)
		checkAgainstReference(t, in[:32], in[32:])
	})
}

// FuzzDeconceal feeds the UDM arbitrary Profile A SUCIs: Deconceal never
// panics, and a SUCI it accepts always yields a valid SUPI of the SUCI's
// home network. The corpus seeds are real SUCIs and tampered ones.
func FuzzDeconceal(f *testing.F) {
	k, err := HomeNetworkKeyFromBytes(bytes.Repeat([]byte{9}, 32), 3)
	if err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, msin := range []string{"0000000001", "123456789", "99999"} {
		sc, err := Conceal(rng, SUPI{MCC: "001", MNC: "01", MSIN: msin}, "0000", k.PublicKey(), k.ID)
		if err != nil {
			f.Fatal(err)
		}
		out := sc.SchemeOutput
		f.Add(sc.Scheme, sc.HomeKeyID, out)
		f.Add(SchemeNull, sc.HomeKeyID, out)
		f.Add(sc.Scheme, sc.HomeKeyID+1, out)
		f.Add(sc.Scheme, sc.HomeKeyID, out[:len(out)-1])
		f.Add(sc.Scheme, sc.HomeKeyID, out[:ephemeralKeyLen+tagLen])
		f.Add(sc.Scheme, sc.HomeKeyID, append(bytes.Clone(out), 0))
		for _, i := range []int{0, ephemeralKeyLen, len(out) - 1} {
			flipped := bytes.Clone(out)
			flipped[i] ^= 0x40
			f.Add(sc.Scheme, sc.HomeKeyID, flipped)
		}
	}
	f.Add(SchemeProfileA, k.ID, []byte{})
	f.Add(SchemeProfileA, k.ID, make([]byte, ephemeralKeyLen+1+tagLen))
	f.Fuzz(func(t *testing.T, scheme, keyID byte, out []byte) {
		sc := &SUCI{MCC: "001", MNC: "01", RoutingIndicator: "0000", Scheme: scheme, HomeKeyID: keyID, SchemeOutput: out}
		supi, err := k.Deconceal(sc)
		if err != nil {
			return
		}
		if verr := supi.Validate(); verr != nil || supi.MCC != sc.MCC || supi.MNC != sc.MNC {
			t.Fatalf("accepted SUCI %s gave SUPI %+v (%v)", sc, supi, verr)
		}
	})
}
