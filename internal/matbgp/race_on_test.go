//go:build race

package matbgp

// raceEnabled reports a -race build: the race detector drops a random
// share of sync.Pool puts, so allocation gates cannot hold under it.
const raceEnabled = true
