package nas

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

// FuzzNASDecode feeds arbitrary bytes to the plain-message decoder, the
// parser every AMF and UE runs on attacker-reachable input. Decode must
// never panic, must return exactly one of a message and an error, and a
// message it accepts must encode again and decode back to an equal one.
func FuzzNASDecode(f *testing.F) {
	for _, m := range sampleMessages() {
		data, err := Encode(m)
		if err != nil {
			f.Fatalf("Encode(%s): %v", m.Type(), err)
		}
		f.Add(data)
		f.Add(data[:len(data)-1])
		f.Add(append(data[:len(data):len(data)], 0x00))
	}
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x41})
	f.Add([]byte{EPD5GMM, 0x00, 0xFF})
	f.Add([]byte{EPD5GMM, shtProtected, 0x41})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if (m == nil) == (err == nil) {
			t.Fatalf("Decode(%x) = %v, %v: want exactly one of message and error", data, m, err)
		}
		if err != nil {
			return
		}
		enc, err := Encode(m)
		if err != nil {
			t.Fatalf("Decode(%x) accepted %#v, which does not encode: %v", data, m, err)
		}
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoding %x of %#v does not decode: %v", enc, m, err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("round trip changed the message:\n first %#v\n again %#v", m, again)
		}
	})
}

// fuzzKAMF and wrongKAMF key the two security contexts of FuzzUnprotect.
var (
	fuzzKAMF  = bytes.Repeat([]byte{0x5a}, 32)
	wrongKAMF = bytes.Repeat([]byte{0x77}, 32)
)

// FuzzUnprotect feeds arbitrary bytes to the protected-message path.
// Unprotect must never panic, must return exactly one of a message and
// an error, and must only yield a message whose MAC verifies under the
// context's own key and direction: the same bytes must fail under a
// different K_AMF and in the opposite direction.
func FuzzUnprotect(f *testing.F) {
	sender, err := NewSecurityContext(fuzzKAMF)
	if err != nil {
		f.Fatal(err)
	}
	for i, m := range sampleMessages() {
		uplink := i%2 == 0
		wire, err := sender.Protect(m, uplink)
		if err != nil {
			f.Fatalf("Protect(%s): %v", m.Type(), err)
		}
		f.Add(wire, uplink)
		tampered := append([]byte(nil), wire...)
		tampered[len(tampered)-1] ^= 0x01
		f.Add(tampered, uplink)
		f.Add(wire[:2+macLen+4], uplink)
	}
	f.Add([]byte{EPD5GMM}, true)
	f.Add(append([]byte{0x12}, make([]byte, 15)...), true)
	f.Add(append([]byte{EPD5GMM, shtPlain}, make([]byte, 14)...), false)

	f.Fuzz(func(t *testing.T, data []byte, uplink bool) {
		receiver, err := NewSecurityContext(fuzzKAMF)
		if err != nil {
			t.Fatal(err)
		}
		m, err := receiver.Unprotect(data, uplink)
		if (m == nil) == (err == nil) {
			t.Fatalf("Unprotect(%x) = %v, %v: want exactly one of message and error", data, m, err)
		}
		if err != nil {
			return
		}
		for _, c := range []struct {
			kamf   []byte
			uplink bool
		}{{wrongKAMF, uplink}, {fuzzKAMF, !uplink}} {
			other, err := NewSecurityContext(c.kamf)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := other.Unprotect(data, c.uplink); !errors.Is(err, ErrIntegrity) {
				t.Fatalf("%x (count %d) accepted with a wrong key or direction: %v",
					data, binary.BigEndian.Uint32(data[2+macLen:]), err)
			}
		}
	})
}
