//go:build !race

package matbgp

const raceEnabled = false
