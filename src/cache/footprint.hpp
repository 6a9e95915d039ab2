// footprint.hpp — the Singh–Stone–Thiebaut footprint function u(R, L).
//
// u(R, L) estimates the number of unique cache lines (line size L bytes)
// touched by R memory references of a workload:
//
//     u(R, L) = W · L^a · R^b · d^(log L · log R)        (paper eq. 2)
//
// The paper models the displacing *non-protocol* workload with the constants
// Singh, Stone and Thiebaut fitted to a 200M-reference multiprogrammed
// IBM/370 MVS trace: W = 2.19827, a = 0.033233, b = 0.827457,
// log d = -0.13025. Logarithms are base-10: with base-10 the fitted
// constants give u ∝ L^(-0.75) at R = 10^6 (sensible spatial locality),
// whereas base-2 drives u to ~0 (see DESIGN.md §2).
//
// For a fixed line size the L terms are constants, so SstCurve folds them
// once: log10 u = (c0 + b·log R) + k·log R with c0 = log10 W + a·log L and
// k = log d·log L. That is the operation order of the expanded formula, so
// the folded curve rounds identically; uniqueLines() is the same curve
// built for one call.
#pragma once

#include <cmath>

namespace affinity {

/// Constants of the SST footprint power law.
struct SstParams {
  double W = 2.19827;
  double a = 0.033233;
  double b = 0.827457;
  double log_d = -0.13025;  ///< log10 of the interaction constant d

  /// The multiprogrammed MVS workload fit used by the paper for the
  /// non-protocol activity.
  static SstParams mvsWorkload() noexcept { return SstParams{}; }
};

/// u(R) at one line size, with the line-size terms precomputed.
class SstCurve {
 public:
  SstCurve(const SstParams& p, double line_bytes) noexcept
      : c0_(std::log10(p.W) + p.a * std::log10(line_bytes)),
        b_(p.b),
        k_(p.log_d * std::log10(line_bytes)) {}

  /// Unique lines touched in `refs` references. Returns 0 for refs <= 0;
  /// clamps at `refs` (a reference stream cannot touch more unique lines
  /// than it has references).
  [[nodiscard]] double uniqueLines(double refs) const noexcept {
    if (refs <= 1.0) return refs > 0.0 ? refs : 0.0;
    const double logR = std::log10(refs);
    const double u = std::pow(10.0, c0_ + b_ * logR + k_ * logR);
    return u > refs ? refs : u;
  }

 private:
  double c0_;  ///< log10 W + a·log10 L
  double b_;
  double k_;  ///< log d·log10 L
};

/// Number of unique lines of size `line_bytes` touched in `refs` references
/// (SstCurve::uniqueLines for a single evaluation).
inline double uniqueLines(const SstParams& p, double refs, double line_bytes) noexcept {
  return SstCurve(p, line_bytes).uniqueLines(refs);
}

/// Inverse-ish helper for tests: references needed to touch `lines` unique
/// lines (bisection on uniqueLines; `lines` must be reachable).
double refsForUniqueLines(const SstParams& p, double lines, double line_bytes) noexcept;

}  // namespace affinity
