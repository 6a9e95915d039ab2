// rd_differential.hpp — shared machinery for the RD-model differential
// battery: build one packet trace per shipped scenario, replay it through
// the trace cachesim (ground truth) and through the RD capture +
// RdCacheModel (prediction), and require per-level global miss ratios to
// agree. rd_model_test runs it downsampled in the quick tier;
// golden_llc_test repeats it full-length in the soak tier.
//
// Tolerance: kRdDiffTolAbs = 0.015 absolute per level. Measured agreement
// on the shipped scenarios is within ±0.005 (the L2/LLC predictions are
// exact to ~1e-3); the headroom absorbs trace-generator evolution without
// letting a real model break slip through (a wrong conversion is off by
// 10x this — see the set-conflict note in cache/reuse.cpp).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "cache/reuse.hpp"
#include "cachesim/hierarchy.hpp"
#include "cachesim/rd_capture.hpp"
#include "cachesim/shared_llc.hpp"
#include "core/scenario.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"

namespace affinity::rd_diff {

inline constexpr double kRdDiffTolAbs = 0.015;  // per-level |model - sim|

struct LevelRatios {
  double l1i = 0.0, l1d = 0.0, l2 = 0.0, llc = 0.0;
  bool has_llc = false;
};

/// Ground truth: replay the trace through the trace-driven simulator.
inline LevelRatios simulateTrace(const MachineParams& m, const std::vector<MemRef>& trace) {
  LevelRatios r;
  const double total = static_cast<double>(trace.size());
  if (m.llc.size_bytes == 0) {
    Hierarchy h(m);
    for (const MemRef& ref : trace) h.access(ref.addr, ref.kind);
    r.l1i = static_cast<double>(h.l1i().stats().misses) / total;
    r.l1d = static_cast<double>(h.l1d().stats().misses) / total;
    r.l2 = static_cast<double>(h.l2().stats().misses) / total;
  } else {
    SharedLlcSystem sys(m, 1);
    for (const MemRef& ref : trace) sys.access(0, ref.addr, ref.kind);
    r.l1i = static_cast<double>(sys.hierarchy(0).l1i().stats().misses) / total;
    r.l1d = static_cast<double>(sys.hierarchy(0).l1d().stats().misses) / total;
    r.l2 = static_cast<double>(sys.hierarchy(0).l2().stats().misses) / total;
    r.llc = static_cast<double>(sys.llcMisses(0)) / total;
    r.has_llc = true;
  }
  return r;
}

/// Prediction: capture an RD profile from the *same* trace and convert.
inline LevelRatios predictFromTrace(const MachineParams& m, const std::string& name,
                                    const std::vector<MemRef>& trace, const RdProfile& bg) {
  const RdProfile prof = captureFromTrace(m, name, trace);
  const RdCacheModel model(m, prof, bg, 1, 0.5);
  LevelRatios r;
  r.l1i = model.l1iGlobalMissRatio();
  r.l1d = model.l1dGlobalMissRatio();
  r.l2 = model.l2GlobalMissRatio();
  if (m.llc.size_bytes != 0) {
    r.llc = model.llcGlobalMissRatio();
    r.has_llc = true;
  }
  return r;
}

/// One scenario's differential check; `packets` controls the trace length.
inline void expectScenarioAgrees(const ConfigFile& cfg, const std::string& label,
                                 unsigned packets) {
  const bool modern = cfg.getString("cache.topology", "sgi-challenge") == "modern-llc";
  const MachineParams m = modern ? MachineParams::modern2020() : MachineParams::sgiChallenge();
  const auto streams =
      std::min<unsigned>(32, std::max(1, static_cast<int>(cfg.getInt("workload.streams", 16))));
  const auto seed = static_cast<std::uint64_t>(cfg.getInt("run.seed", 1));

  // Round-robin packet interleave across the scenario's streams. The exact
  // interleaving is immaterial to the differential: both sides consume the
  // identical reference stream.
  const ProtocolTraceGenerator gen(ProtocolLayout::standard(), ProtocolTraceParams{});
  Rng rng(seed);
  std::vector<MemRef> trace;
  for (unsigned p = 0; p < packets; ++p) gen.receivePacket(p % streams, p, rng, trace);
  ASSERT_FALSE(trace.empty());

  const RdProfile bg = captureBackgroundRdProfile(m, 100'000, seed + 1);
  const LevelRatios sim = simulateTrace(m, trace);
  const LevelRatios rd = predictFromTrace(m, label, trace, bg);

  EXPECT_NEAR(rd.l1i, sim.l1i, kRdDiffTolAbs) << label << " L1I";
  EXPECT_NEAR(rd.l1d, sim.l1d, kRdDiffTolAbs) << label << " L1D";
  EXPECT_NEAR(rd.l2, sim.l2, kRdDiffTolAbs) << label << " L2";
  EXPECT_EQ(rd.has_llc, sim.has_llc) << label;
  if (sim.has_llc) {
    EXPECT_NEAR(rd.llc, sim.llc, kRdDiffTolAbs) << label << " LLC";
  }
}

/// Runs the battery over every scenarios/*.ini with a coverage assertion
/// that no scenario was silently skipped.
inline void runDifferentialBattery(const std::string& source_root, unsigned packets) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(fs::path(source_root) / "scenarios"))
    if (entry.path().extension() == ".ini") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 9u) << "shipped scenario set shrank";

  std::size_t covered = 0;
  for (const auto& path : files) {
    SCOPED_TRACE(path.filename().string());
    std::string error;
    const auto cfg = ConfigFile::load(path.string(), &error);
    ASSERT_TRUE(cfg.has_value()) << error;
    // Every shipped scenario must still build under the [cache] seam.
    ASSERT_TRUE(buildScenario(*cfg, &error).has_value()) << error;
    expectScenarioAgrees(*cfg, path.filename().string(), packets);
    ++covered;
  }
  // Coverage: no scenario silently skipped.
  EXPECT_EQ(covered, files.size());
}

}  // namespace affinity::rd_diff
