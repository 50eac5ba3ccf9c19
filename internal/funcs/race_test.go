//go:build race

package funcs

// Under the race detector sync.Pool drops pooled items at random, so
// allocation counts of pooled paths are not assertable there.
func init() { raceEnabled = true }
