// Package core implements the estimator constructions of
//
//	Edith Cohen, "Estimation for Monotone Sampling: Competitiveness and
//	Customization", PODC 2014 (arXiv:1212.0243).
//
// A monotone estimation problem presents an estimator with an outcome
// S(v, u): the data vector v was sampled with seed u ~ U(0,1], and smaller
// seeds give more information. Everything an unbiased nonnegative estimator
// may use is captured by the lower-bound function
//
//	f^(v)(x) = inf { f(z) : z consistent with the outcome at seed x },
//
// which the outcome at seed u determines for all x ≥ u. Estimators here are
// therefore functions of (lb, u) where lb is the lower-bound function; they
// only evaluate lb at arguments ≥ u, which keeps them honest (computable
// from the outcome alone).
//
// Implemented estimators:
//
//   - L* (Section 4): fˆ(ρ) = f^(v)(ρ)/ρ − ∫_ρ^1 f^(v)(x)/x² dx. Unbiased,
//     nonnegative, 4-competitive (tight), monotone, the unique admissible
//     monotone estimator, dominates Horvitz–Thompson, and ≺+-optimal for
//     the order "smaller f first".
//   - U* (Section 6): the upper extreme of the optimal range, computed by
//     backward integration of its defining integral equation using the
//     upper envelope sup_{z∈S*} f^(z)(η). ≺+-optimal for "larger f first"
//     under the paper's condition (49).
//   - v-optimal oracle (Theorem 2.1): negated slopes of the greatest convex
//     minorant of f^(v); gives the per-data variance optimum that defines
//     competitiveness.
//   - Horvitz–Thompson: inverse-probability on revealing outcomes.
//
// The optimal range [λL, λU] of Section 3 is exposed for admissibility
// checks, and evaluation helpers compute expectations, variances and
// competitive ratios by quadrature over the seed.
package core
