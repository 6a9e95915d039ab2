// Tests for src/cache: the SST footprint power law, set-occupancy flush
// fractions, per-level flush model, and the reload-transient execution-time
// model — including the paper's headline numbers (t_cold = 284.3 µs, L2
// flushed much more slowly than L1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "cache/exec_time.hpp"
#include "cache/flush.hpp"
#include "cache/footprint.hpp"
#include "cache/machine.hpp"
#include "util/rng.hpp"

namespace affinity {
namespace {

// ------------------------------------------------------------ geometry ----

TEST(Machine, ChallengeGeometry) {
  const MachineParams m = MachineParams::sgiChallenge();
  EXPECT_EQ(m.l1d.sets(), 16u * 1024 / 32);
  EXPECT_EQ(m.l2.sets(), 1024u * 1024 / 128);
  EXPECT_EQ(m.l1i.lines(), 512u);
  EXPECT_DOUBLE_EQ(m.refsPerMicrosecond(), 20.0);  // 100 MHz / 5 cycles/ref
}

// ------------------------------------------------------------ footprint ---

class FootprintMonotone : public ::testing::TestWithParam<double> {};

TEST_P(FootprintMonotone, NondecreasingInRefs) {
  const SstParams p = SstParams::mvsWorkload();
  const double line = GetParam();
  double prev = 0.0;
  for (double refs = 10.0; refs <= 1e9; refs *= 3.7) {
    const double u = uniqueLines(p, refs, line);
    EXPECT_GE(u, prev) << "refs=" << refs << " L=" << line;
    EXPECT_LE(u, refs) << "u cannot exceed the reference count";
    prev = u;
  }
}

INSTANTIATE_TEST_SUITE_P(Lines, FootprintMonotone, ::testing::Values(16.0, 32.0, 64.0, 128.0));

TEST(Footprint, LargerLinesTouchFewerUniqueLines) {
  const SstParams p = SstParams::mvsWorkload();
  const double refs = 1e6;
  EXPECT_GT(uniqueLines(p, refs, 16.0), uniqueLines(p, refs, 32.0));
  EXPECT_GT(uniqueLines(p, refs, 32.0), uniqueLines(p, refs, 128.0));
}

TEST(Footprint, ZeroAndTinyRefs) {
  const SstParams p = SstParams::mvsWorkload();
  EXPECT_DOUBLE_EQ(uniqueLines(p, 0.0, 32.0), 0.0);
  EXPECT_DOUBLE_EQ(uniqueLines(p, 0.5, 32.0), 0.5);  // clamped at refs
}

TEST(Footprint, SpatialLocalityIsSubLinear) {
  // Doubling the line size should reduce unique lines by less than 2x
  // (consecutive references share lines but not perfectly).
  const SstParams p = SstParams::mvsWorkload();
  const double u32 = uniqueLines(p, 1e6, 32.0);
  const double u64 = uniqueLines(p, 1e6, 64.0);
  EXPECT_GT(u64, u32 / 2.0);
  EXPECT_LT(u64, u32);
}

TEST(Footprint, InverseRecoversRefs) {
  const SstParams p = SstParams::mvsWorkload();
  const double refs = 5e5;
  const double u = uniqueLines(p, refs, 32.0);
  EXPECT_NEAR(refsForUniqueLines(p, u, 32.0), refs, refs * 1e-3);
}

// ---------------------------------------------------------- displacement --

TEST(FractionDisplaced, DirectMappedClosedForm) {
  // u interfering lines into S sets, A=1: F = 1 - (1-1/S)^u.
  const double S = 512.0;
  for (double u : {1.0, 50.0, 512.0, 5000.0}) {
    const double expected = 1.0 - std::pow(1.0 - 1.0 / S, u);
    EXPECT_NEAR(fractionDisplaced(u, S, 1), expected, 1e-12);
  }
}

TEST(FractionDisplaced, BoundsAndMonotone) {
  double prev = 0.0;
  for (double u = 0.0; u < 1e5; u = u * 2 + 1) {
    const double f = fractionDisplaced(u, 512.0, 1);
    EXPECT_GE(f, prev);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    prev = f;
  }
  EXPECT_DOUBLE_EQ(fractionDisplaced(0.0, 512.0, 1), 0.0);
}

TEST(FractionDisplaced, AssociativityApproachesFullyAssociativeLimit) {
  // At fixed total line count, higher associativity wastes fewer interfering
  // lines on collisions with each other, so the displaced fraction grows
  // with A toward the fully-associative limit u / total_lines.
  const double u = 400.0, S = 512.0;
  const double f1 = fractionDisplaced(u, S, 1);
  const double f2 = fractionDisplaced(u, S / 2, 2);  // same total lines
  const double f8 = fractionDisplaced(u, S / 8, 8);
  EXPECT_LT(f1, f2);
  EXPECT_LT(f2, f8);
  EXPECT_LE(f8, u / S + 0.02);
}

// -------------------------------------------------------------- flush -----

TEST(FlushModel, L2FlushesMuchMoreSlowlyThanL1) {
  // The paper's Figure 4 observation.
  const FlushModel fm(MachineParams::sgiChallenge(), SstParams::mvsWorkload());
  for (double x : {100.0, 1000.0, 10000.0}) {
    EXPECT_GT(fm.f1(x), 4.0 * fm.f2(x)) << "x=" << x;
  }
  // L1 is mostly flushed within a few ms; L2 needs ~1 s.
  EXPECT_GT(fm.f1(5000.0), 0.95);
  EXPECT_LT(fm.f2(5000.0), 0.3);
  EXPECT_GT(fm.f2(1e6), 0.9);
}

TEST(FlushModel, MonotoneNondecreasingInTime) {
  const FlushModel fm(MachineParams::sgiChallenge(), SstParams::mvsWorkload());
  double p1 = 0.0, p2 = 0.0;
  for (double x = 1.0; x < 1e7; x *= 2.3) {
    const double f1 = fm.f1(x), f2 = fm.f2(x);
    EXPECT_GE(f1, p1);
    EXPECT_GE(f2, p2);
    p1 = f1;
    p2 = f2;
  }
}

TEST(FlushModel, ZeroAtZeroGap) {
  const FlushModel fm(MachineParams::sgiChallenge(), SstParams::mvsWorkload());
  EXPECT_DOUBLE_EQ(fm.f1(0.0), 0.0);
  EXPECT_DOUBLE_EQ(fm.f2(0.0), 0.0);
}

// Bit-exactness of the precomputed per-level constants. Two references:
// the single-call wrappers fractionDisplaced(uniqueLines(...)), and the
// expanded formulas written out term by term (paper eq. 2 and the Appendix
// set-occupancy forms), so a reordering of the shared curve that changes
// rounding shows up here rather than as a drift in the golden figures.
double expandedUniqueLines(const SstParams& p, double refs, double line_bytes) {
  if (refs <= 1.0) return refs > 0.0 ? refs : 0.0;
  const double logL = std::log10(line_bytes);
  const double logR = std::log10(refs);
  const double log_u = std::log10(p.W) + p.a * logL + p.b * logR + p.log_d * logL * logR;
  const double u = std::pow(10.0, log_u);
  return u > refs ? refs : u;
}

double expandedFraction(double u, double sets, unsigned assoc) {
  if (u <= 0.0) return 0.0;
  if (assoc == 1) return 1.0 - std::exp(u * std::log1p(-1.0 / sets));
  const double lambda = u / sets;
  double pmf = std::exp(-lambda);
  double cdf = pmf;
  double expected = 0.0;
  for (unsigned k = 1; k <= assoc; ++k) {
    expected += 1.0 - cdf;
    pmf *= lambda / static_cast<double>(k);
    cdf += pmf;
  }
  const double f = expected / static_cast<double>(assoc);
  return f > 1.0 ? 1.0 : f;
}

/// Log-spaced ages from 1e-3 to 1e8 µs, 16 per decade.
std::vector<double> ageSweep() {
  std::vector<double> xs;
  for (int i = 0; i <= 16 * 11; ++i) xs.push_back(std::pow(10.0, -3.0 + i / 16.0));
  return xs;
}

void expectFlushLevelsBitExact(const MachineParams& m) {
  const SstParams sst = SstParams::mvsWorkload();
  const FlushModel fm(m, sst);
  const auto level = [&](const CacheLevelParams& c, double refs) {
    const double wrapped = fractionDisplaced(uniqueLines(sst, refs, c.line_bytes),
                                             static_cast<double>(c.sets()), c.associativity);
    const double expanded =
        expandedFraction(expandedUniqueLines(sst, refs, c.line_bytes),
                         static_cast<double>(c.sets()), c.associativity);
    EXPECT_EQ(wrapped, expanded) << "refs=" << refs;
    return wrapped;
  };
  for (const double x : ageSweep()) {
    const double refs = x * m.refsPerMicrosecond();
    EXPECT_EQ(fm.f1(x), level(m.l1d, refs * (1.0 - m.ifetch_fraction))) << "x=" << x;
    EXPECT_EQ(fm.f2(x), level(m.l2, refs)) << "x=" << x;
    if (m.llc.size_bytes > 0) {
      EXPECT_EQ(fm.f3(x), level(m.llc, refs)) << "x=" << x;
    } else {
      EXPECT_EQ(fm.f3(x), 0.0);
    }
  }
}

TEST(FlushModel, LevelsBitExactDirectMapped) {
  // Direct-mapped L1/L2, no LLC: the binomial closed form.
  expectFlushLevelsBitExact(MachineParams::sgiChallenge());
}

TEST(FlushModel, LevelsBitExactSetAssociativeWithLlc) {
  // 8/16-way private levels and the 16-way shared LLC: the Poisson path.
  expectFlushLevelsBitExact(MachineParams::modern2020());
}

// ------------------------------------------------------------ exec time ---

TEST(ExecTime, PaperColdTime) {
  const ReloadParams r = ReloadParams::measuredUdpReceive();
  EXPECT_NEAR(r.tCold(), 284.3, 0.05);  // the paper's measured value
}

TEST(ExecTime, WarmAndColdEndpoints) {
  const auto m = ExecTimeModel::standard();
  EXPECT_DOUBLE_EQ(m.serviceTime({0.0, 0.0, 0.0}), m.tWarm());
  EXPECT_NEAR(m.serviceTime({kColdAge, kColdAge, kColdAge}), m.tCold(), 1e-9);
}

TEST(ExecTime, MonotoneInEveryComponentAge) {
  const auto m = ExecTimeModel::standard();
  double prev = 0.0;
  for (double x = 0.0; x < 1e6; x = x * 2 + 1) {
    const double t = m.serviceTime({x, 0.0, 0.0});
    EXPECT_GE(t, prev);
    prev = t;
  }
  // Stream-component cold costs its per-level shares of the transients.
  const double stream_cold = m.serviceTime({0.0, 0.0, kColdAge});
  const double expected = m.tWarm() + m.shares().l1_stream * m.reloadParams().dl1_us +
                          m.shares().l2_stream * m.reloadParams().dl2_us;
  EXPECT_NEAR(stream_cold, expected, 1e-9);
}

TEST(ExecTime, BoundsHoldForRandomAges) {
  const auto m = ExecTimeModel::standard();
  Rng rng(31);
  for (int i = 0; i < 2000; ++i) {
    CacheStateAges ages;
    ages.code = rng.bernoulli(0.2) ? kColdAge : rng.uniform(0.0, 1e6);
    ages.shared = rng.bernoulli(0.2) ? kColdAge : rng.uniform(0.0, 1e6);
    ages.stream = rng.bernoulli(0.2) ? kColdAge : rng.uniform(0.0, 1e6);
    const double t = m.serviceTime(ages);
    EXPECT_GE(t, m.tWarm());
    EXPECT_LE(t, m.tCold() + 1e-9);
  }
}

TEST(ExecTime, InvalidSharesRejected) {
  FootprintShares bad;
  bad.l1_code = 0.9;
  bad.l1_shared = 0.9;
  bad.l1_stream = 0.9;
  EXPECT_FALSE(bad.valid());
  EXPECT_DEATH(ExecTimeModel(FlushModel(MachineParams::sgiChallenge(), SstParams::mvsWorkload()),
                             ReloadParams::measuredUdpReceive(), bad),
               "CHECK failed");
}

TEST(ExecTime, SendSideIsCheaper) {
  const ReloadParams recv = ReloadParams::measuredUdpReceive();
  const ReloadParams send = ReloadParams::measuredUdpSend();
  EXPECT_LT(send.t_warm_us, recv.t_warm_us);
  EXPECT_LT(send.tCold(), recv.tCold());
}

// serviceParts evaluates each distinct component age once. It must equal
// three independent per-component evaluations bit for bit, whichever ages
// coincide: every combination of equal, unequal, zero and cold ages.
void expectServicePartsMatchPerComponent(const ExecTimeModel& m, bool with_any) {
  const std::vector<double> values = {0.0, 5.0, 37.5, 1200.0, kColdAge};
  const std::vector<double> any_values = with_any ? values : std::vector<double>{kColdAge};
  const FootprintShares& s = m.shares();
  const ReloadParams& r = m.reloadParams();
  int combos = 0;
  for (const double code : values)
    for (const double shared : values)
      for (const double stream : values)
        for (const double code_any : any_values)
          for (const double shared_any : any_values)
            for (const double stream_any : any_values) {
              const CacheStateAges a{code, shared, stream, code_any, shared_any, stream_any};
              const double l1 = s.l1_code * m.f1At(a.code) + s.l1_shared * m.f1At(a.shared) +
                                s.l1_stream * m.f1At(a.stream);
              const double l2 = s.l2_code * m.f2At(a.code) + s.l2_shared * m.f2At(a.shared) +
                                s.l2_stream * m.f2At(a.stream);
              double l3 = 0.0;
              if (r.dl3_us > 0.0) {
                l3 = s.l2_code * m.f3At(std::min(a.code, a.code_any)) +
                     s.l2_shared * m.f3At(std::min(a.shared, a.shared_any)) +
                     s.l2_stream * m.f3At(std::min(a.stream, a.stream_any));
              }
              const ExecTimeModel::ServiceParts p = m.serviceParts(a);
              ASSERT_EQ(p.base, r.t_warm_us);
              ASSERT_EQ(p.l1, l1 * r.dl1_us) << code << " " << shared << " " << stream;
              ASSERT_EQ(p.l2, l2 * r.dl2_us) << code << " " << shared << " " << stream;
              ASSERT_EQ(p.l3, l3 * r.dl3_us) << code_any << " " << shared_any << " "
                                             << stream_any;
              ++combos;
            }
  EXPECT_EQ(combos, with_any ? 15625 : 125);
}

TEST(ExecTime, ServicePartsMatchPerComponentEvaluation) {
  expectServicePartsMatchPerComponent(ExecTimeModel::standard(), false);
}

TEST(ExecTime, ServicePartsMatchPerComponentEvaluationWithSharedLlc) {
  const ExecTimeModel m(FlushModel(MachineParams::modern2020(), SstParams::mvsWorkload()),
                        ReloadParams::measuredUdpReceive().splitForSharedLlc(),
                        FootprintShares{});
  ASSERT_GT(m.reloadParams().dl3_us, 0.0);
  expectServicePartsMatchPerComponent(m, true);
}

}  // namespace
}  // namespace affinity
