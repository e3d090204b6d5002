package suci

import (
	"sync"

	"shield5g/internal/crypto/curve25519"
)

// maxHomeNetworkTables bounds the home-network comb cache. A deployment
// provisions a handful of home-network keys, but a test suite that
// deploys many slices mints a fresh key per slice, and each comb holds
// about 30 KB for the life of the process.
const maxHomeNetworkTables = 64

// hnTableEntry is one home-network key's comb, or the verdict that the
// key is no point of the curve. The first Conceal to the key builds it,
// outside the cache lock; concurrent first users wait on the once.
type hnTableEntry struct {
	once  sync.Once
	table *curve25519.Table
	err   error
}

// hnTables is the process-wide cache of home-network combs, keyed by the
// 32-byte public key as provisioned, so every UE of a slice shares one.
// At the bound it is emptied: the next first use of each key rebuilds,
// and a Conceal still holding a dropped entry finishes with it.
var hnTables = struct {
	mu    sync.Mutex
	byKey map[[32]byte]*hnTableEntry
}{byKey: make(map[[32]byte]*hnTableEntry)}

// homeNetworkTable returns the comb of the home-network public key pub
// (32 bytes), building it on first use. A key that is no curve point
// returns curve25519.ErrNotOnCurve, on every call, without re-checking.
func homeNetworkTable(pub []byte) (*curve25519.Table, error) {
	key := [32]byte(pub)
	hnTables.mu.Lock()
	e := hnTables.byKey[key]
	if e == nil {
		if len(hnTables.byKey) == maxHomeNetworkTables {
			clear(hnTables.byKey)
		}
		e = new(hnTableEntry)
		hnTables.byKey[key] = e
	}
	hnTables.mu.Unlock()
	e.once.Do(func() { e.table, e.err = curve25519.NewTable(key[:]) })
	return e.table, e.err
}
