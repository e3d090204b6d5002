// Package curve25519 computes X25519 (RFC 7748) against fixed points with
// precomputed fixed-base combs on the birationally equivalent edwards25519
// curve.
//
// A SUCI concealment (TS 33.501 Annex C, Profile A) multiplies one fresh
// ephemeral scalar by two points that never change: the X25519 base point,
// for the ephemeral public key, and the home network's public key, for
// the shared secret. A Montgomery ladder spends 255 double-and-add steps
// on each. A Table instead holds small multiples of the point, so each
// product is 64 constant-time table lookups and mixed additions plus four
// doublings, and the two products share one field inversion.
//
// The field arithmetic (package field) and the point formulas and lookup
// tables (edwards25519.go, tables.go) are trimmed copies of
// crypto/internal/fips140/edwards25519 from Go 1.24.0, under the Go
// license in this directory. The comb walk follows that package's
// ScalarBaseMult. This file adds the Montgomery mapping and the
// unreduced clamped scalar.
package curve25519

import (
	"errors"
	"sync"

	"shield5g/internal/crypto/curve25519/field"
)

// ErrNotOnCurve reports a u-coordinate that is no point of Curve25519: a
// point of the quadratic twist, or u = −1, which maps to no affine point
// of edwards25519. No X25519 key pair has such a public key.
var ErrNotOnCurve = errors.New("curve25519: u-coordinate is not a point of the curve")

// Table is the fixed-base comb of one point P: comb[i] holds 1·Q … 8·Q
// for Q = 256^i·P, in affine-cached coordinates. A Table is about 30 KB,
// read-only once built, and safe for concurrent use.
type Table struct {
	comb [32]affineLookupTable
}

// NewTable builds the comb of the point with Montgomery u-coordinate u,
// 32 bytes little-endian. As in RFC 7748 §5, bit 255 is ignored and
// non-canonical values are reduced modulo p. It returns ErrNotOnCurve
// for a u that is no point of the curve.
func NewTable(u []byte) (*Table, error) {
	var mu, num, den field.Element
	if _, err := mu.SetBytes(u); err != nil {
		return nil, err
	}
	// y = (u−1)/(u+1), the birational map of RFC 7748 §4.1. The points
	// (x, y) and (−x, y) map to the same u, so decompression may pick
	// either sign of x.
	num.Subtract(&mu, feOne)
	den.Add(&mu, feOne)
	if den.Equal(new(field.Element)) == 1 {
		return nil, ErrNotOnCurve
	}
	num.Multiply(&num, den.Invert(&den))
	var p point
	if _, err := p.SetBytes(num.Bytes()); err != nil {
		return nil, ErrNotOnCurve
	}

	t := new(Table)
	var p1 projP1xP1
	var p2 projP2
	for i := range t.comb {
		t.comb[i].FromP3(&p)
		p2.FromP3(&p)
		for j := 0; j < 8; j++ {
			p2.FromP1xP1(p1.Double(&p2))
		}
		p.fromP1xP1(&p1) // p = 256·p
	}
	return t, nil
}

// basePoint is the u-coordinate of the X25519 base point, 9.
var basePoint = [32]byte{9}

var baseTable = sync.OnceValue(func() *Table {
	t, err := NewTable(basePoint[:])
	if err != nil {
		panic("curve25519: base point: " + err.Error())
	}
	return t
})

// Base returns the comb of the X25519 base point, built once per process
// on first use.
func Base() *Table { return baseTable() }

// ScalarMultPair sets a = X25519(scalar, P) and b = X25519(scalar, Q), for
// P and Q the points of ta and tb. The scalar is clamped as RFC 7748 §5
// decodes it and used as an integer, not reduced modulo the group order,
// so the outputs are exact for points with a torsion component too.
//
// The two u-coordinates share one field inversion, so when either product
// is the identity (P or Q of low order) both outputs are all zero; the
// all-zero check RFC 7748 §6.1 asks of a shared secret rejects the pair.
//
// The time taken does not depend on the scalar, and the clamped copy and
// its digits are wiped before returning.
//
//shieldlint:hotpath
func ScalarMultPair(a, b, scalar *[32]byte, ta, tb *Table) {
	k := *scalar
	k[0] &= 248
	k[31] &= 127
	k[31] |= 64
	var digits [64]int8
	signedRadix16(&digits, &k)

	var pa, pb point
	ta.mul(&pa, &digits)
	tb.mul(&pb, &digits)
	clear(k[:])
	clear(digits[:])

	// u = (Z+Y)/(Z−Y) for both points, with Montgomery's trick:
	// 1/(da·db) gives 1/da and 1/db after one multiplication each.
	var na, da, nb, db, inv field.Element
	na.Add(&pa.z, &pa.y)
	da.Subtract(&pa.z, &pa.y)
	nb.Add(&pb.z, &pb.y)
	db.Subtract(&pb.z, &pb.y)
	inv.Invert(inv.Multiply(&da, &db))
	na.Multiply(na.Multiply(&na, &db), &inv)
	nb.Multiply(nb.Multiply(&nb, &da), &inv)
	copy(a[:], na.Bytes())
	copy(b[:], nb.Bytes())
	pa, pb, nb = point{}, point{}, field.Element{}
}

// mul sets v to Σ digits[i]·16^i·P, the even/odd comb walk of Go's
// ScalarBaseMult: the odd digits accumulate first, are multiplied by 16
// with four doublings, and the even digits are added on top.
//
//shieldlint:hotpath
func (t *Table) mul(v *point, digits *[64]int8) {
	var multiple affineCached
	var tmp1 projP1xP1
	var tmp2 projP2

	v.x.Zero()
	v.y.One()
	v.z.One()
	v.t.Zero()
	for i := 1; i < 64; i += 2 {
		t.comb[i/2].SelectInto(&multiple, digits[i])
		v.fromP1xP1(tmp1.AddAffine(v, &multiple))
	}

	tmp2.FromP3(v)
	for j := 0; j < 4; j++ {
		tmp2.FromP1xP1(tmp1.Double(&tmp2))
	}
	v.fromP1xP1(&tmp1)

	for i := 0; i < 64; i += 2 {
		t.comb[i/2].SelectInto(&multiple, digits[i])
		v.fromP1xP1(tmp1.AddAffine(v, &multiple))
	}
	multiple = affineCached{}
}

// signedRadix16 writes k = Σ digits[i]·16^i with every digit but the top
// one in [−8, 8): Go's (*Scalar).signedRadix16 applied to the raw clamped
// scalar. Bit 255 is clear, so the top digit is at most 8, which
// SelectInto accepts.
func signedRadix16(digits *[64]int8, k *[32]byte) {
	for i := 0; i < 32; i++ {
		digits[2*i] = int8(k[i] & 15)
		digits[2*i+1] = int8((k[i] >> 4) & 15)
	}
	for i := 0; i < 63; i++ {
		carry := (digits[i] + 8) >> 4
		digits[i] -= carry << 4
		digits[i+1] += carry
	}
}
