//go:build race

package server

// Under the race detector sync.Pool drops pooled items at random, so
// allocation counts are not assertable there.
func init() { raceEnabled = true }
