package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sync"
)

// inputs holds everything a run feeds the program, drawn from the
// benchmark seed alone: subscriber keys, SUPIs (MSINs) and the entropy
// stream for the slice's home-network and image-signing keys. The
// program receives only these generated values.
type inputs struct {
	rng *rand.Rand
	// used keeps MSINs distinct across every population the run draws.
	used map[uint64]bool
}

func newInputs(seed uint64) *inputs {
	return &inputs{
		rng:  rand.New(rand.NewPCG(seed, 0x5eed_b0a7)),
		used: make(map[uint64]bool),
	}
}

// subscriber is one generated subscription: a 10-digit MSIN and a
// 128-bit long-term key.
type subscriber struct {
	MSIN string
	K    []byte
}

// subscribers draws n fresh subscriptions with distinct MSINs.
func (in *inputs) subscribers(n int) []subscriber {
	out := make([]subscriber, n)
	for i := range out {
		var msin uint64
		for {
			msin = in.rng.Uint64N(10_000_000_000)
			if !in.used[msin] {
				break
			}
		}
		in.used[msin] = true
		k := make([]byte, 16)
		binary.BigEndian.PutUint64(k[:8], in.rng.Uint64())
		binary.BigEndian.PutUint64(k[8:], in.rng.Uint64())
		out[i] = subscriber{MSIN: fmt.Sprintf("%010d", msin), K: k}
	}
	return out
}

// entropy is a deterministic io.Reader for SliceConfig.Entropy, so a
// same-seed replay deploys bit-identical key material. The slice reads it
// from request paths too (enclave RAND draws), possibly from several
// workers at once.
type entropy struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newEntropy(seed uint64) *entropy {
	return &entropy{rng: rand.New(rand.NewPCG(seed, 0xe47_0b1a))}
}

func (e *entropy) Read(p []byte) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var buf [8]byte
	for i := 0; i < len(p); i += 8 {
		binary.LittleEndian.PutUint64(buf[:], e.rng.Uint64())
		copy(p[i:], buf[:])
	}
	return len(p), nil
}
