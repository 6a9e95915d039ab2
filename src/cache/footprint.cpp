#include "cache/footprint.hpp"

namespace affinity {

double refsForUniqueLines(const SstParams& p, double lines, double line_bytes) noexcept {
  if (lines <= 0.0) return 0.0;
  double lo = 1.0, hi = 1.0;
  while (uniqueLines(p, hi, line_bytes) < lines && hi < 1e18) hi *= 2.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (uniqueLines(p, mid, line_bytes) < lines)
      lo = mid;
    else
      hi = mid;
  }
  return 0.5 * (lo + hi);
}

}  // namespace affinity
