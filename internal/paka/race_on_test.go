//go:build race

package paka

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a share of its items on purpose, so allocation counts
// of pooled paths are not meaningful.
const raceEnabled = true
