// flush.hpp — F(x): fraction of the cached protocol footprint displaced by
// intervening non-protocol execution of duration x (paper Appendix).
//
// The u(R,L) unique lines of the intervening workload are assumed to map
// independently and uniformly into the cache's S sets; the per-set count is
// X ~ Binomial(u, 1/S). For a direct-mapped cache a resident line is
// displaced iff X >= 1, so
//
//     F = 1 - (1 - 1/S)^u
//
// and for A-way LRU the displaced fraction is E[min(X, A)] / A
// = (1/A) Σ_{k=1..A} P(X >= k), evaluated with a Poisson(u/S) approximation.
//
// F1 applies u to half the reference stream (split L1 I/D caches, the paper's
// even-split assumption); F2 applies it to the full stream and the L2
// geometry. The protocol footprint is flushed much more slowly from the 1 MB
// L2 than from the 16 KB L1s (paper Fig. 4; bench/fig04_flush_curves).
//
// One formula per step, with its constants precomputed: FlushModel holds,
// per cache level, an SstCurve (the line-size terms of u(R,L) folded into
// two constants) and a SetMapping (sets, associativity and log(1 - 1/S)).
// An evaluation then pays only for what depends on x: one log10 and one pow
// for u, and the exp of the displacement. uniqueLines() and
// fractionDisplaced() are the same two objects built for a single call, so
// there is no second code path and every F rounds identically either way.
#pragma once

#include <cmath>

#include "cache/footprint.hpp"
#include "cache/machine.hpp"
#include "util/check.hpp"

namespace affinity {

/// Displacement of a cache with `sets` sets and associativity `assoc` by
/// independently, uniformly mapped interfering lines.
class SetMapping {
 public:
  SetMapping(double sets, unsigned assoc) noexcept
      : sets_(sets), assoc_(assoc), log_keep_(assoc == 1 ? std::log1p(-1.0 / sets) : 0.0) {}

  /// Fraction of the cache displaced by `unique_lines` interfering lines.
  [[nodiscard]] double fractionDisplaced(double unique_lines) const noexcept {
    AFF_DCHECK(sets_ > 0.0 && assoc_ >= 1);
    if (unique_lines <= 0.0) return 0.0;
    if (assoc_ == 1) {
      // Exact binomial form: P(X >= 1) = 1 - (1 - 1/S)^u.
      return 1.0 - std::exp(unique_lines * log_keep_);
    }
    // Poisson approximation: lambda = u / S per set.
    const double lambda = unique_lines / sets_;
    // E[min(X, A)] = Σ_{k=1..A} P(X >= k); accumulate survivor function.
    double pmf = std::exp(-lambda);  // P(X = 0)
    double cdf = pmf;
    double expected = 0.0;
    for (unsigned k = 1; k <= assoc_; ++k) {
      expected += 1.0 - cdf;  // P(X >= k)
      pmf *= lambda / static_cast<double>(k);
      cdf += pmf;
    }
    const double f = expected / static_cast<double>(assoc_);
    return f > 1.0 ? 1.0 : f;
  }

 private:
  double sets_;
  unsigned assoc_;
  double log_keep_;  ///< log(1 - 1/S), the direct-mapped survival exponent (assoc 1 only)
};

/// Fraction of a cache with `sets` sets and associativity `assoc` displaced
/// by `unique_lines` independently-mapped interfering lines.
inline double fractionDisplaced(double unique_lines, double sets, unsigned assoc) noexcept {
  return SetMapping(sets, assoc).fractionDisplaced(unique_lines);
}

/// Per-level flush fractions for a machine under an SST-modelled
/// non-protocol workload.
class FlushModel {
 public:
  FlushModel(MachineParams machine, SstParams sst) noexcept
      : machine_(machine),
        sst_(sst),
        refs_per_us_(machine.refsPerMicrosecond()),
        data_share_(1.0 - machine.ifetch_fraction),
        l1_(sst, machine.l1d),
        l2_(sst, machine.l2),
        llc_(sst, machine.llc) {}

  /// References issued by the intervening workload in `x_us` microseconds.
  [[nodiscard]] double refs(double x_us) const noexcept {
    return x_us > 0.0 ? x_us * refs_per_us_ : 0.0;
  }

  /// Fraction of the footprint flushed from the (data) L1 after x_us of
  /// intervening execution. Uses the D-cache geometry with the non-ifetch
  /// share of the reference stream.
  [[nodiscard]] double f1(double x_us) const noexcept {
    return l1_.fraction(refs(x_us) * data_share_);
  }

  /// Fraction flushed from the unified L2 after x_us.
  [[nodiscard]] double f2(double x_us) const noexcept { return l2_.fraction(refs(x_us)); }

  /// Fraction flushed from the shared LLC after x_us by the local
  /// processor's reference stream. 0 when the machine has no LLC.
  [[nodiscard]] double f3(double x_us) const noexcept {
    if (machine_.llc.size_bytes == 0) return 0.0;
    return llc_.fraction(refs(x_us));
  }

  [[nodiscard]] const MachineParams& machine() const noexcept { return machine_; }
  [[nodiscard]] const SstParams& sst() const noexcept { return sst_; }

 private:
  /// One cache level: the footprint curve at its line size and its sets
  /// (none for a level the machine lacks, size_bytes == 0).
  struct Level {
    Level(const SstParams& sst, const CacheLevelParams& c) noexcept
        : curve(sst, c.line_bytes),
          sets(c.size_bytes == 0 ? 0.0 : static_cast<double>(c.sets()), c.associativity) {}
    [[nodiscard]] double fraction(double refs) const noexcept {
      return sets.fractionDisplaced(curve.uniqueLines(refs));
    }
    SstCurve curve;
    SetMapping sets;
  };

  MachineParams machine_;
  SstParams sst_;
  double refs_per_us_;
  double data_share_;  ///< non-ifetch share of the stream (the L1 D-cache's)
  Level l1_;
  Level l2_;
  Level llc_;
};

}  // namespace affinity
