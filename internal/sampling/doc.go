// Package sampling implements the weighted-sampling substrate underlying
// the paper's applications: single-instance schemes (Poisson PPS, bottom-k
// with priority or exponential ranks) and their coordinated (shared-seed /
// permanent-random-numbers) versions, where the per-item randomization is
// a hash of the item key so that samples of different instances are
// maximally correlated.
//
// Coordinated PPS restricted to a single item is exactly the monotone
// sampling scheme of the paper: the tuple of the item's weights across
// instances is observed through thresholds τ_i(u) = u·τ*_i driven by one
// shared seed u. TupleOutcome captures that per-item view and is the bridge
// to the estimators in internal/core via internal/funcs.
package sampling
