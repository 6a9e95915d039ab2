// metrics.hpp — outputs of one simulation run.
#pragma once

#include <cstdint>
#include <vector>

namespace affinity {

/// Steady-state performance metrics (collected after warmup).
struct RunMetrics {
  // Packet delay = completion − arrival (queueing + service), µs.
  double mean_delay_us = 0.0;
  double p50_delay_us = 0.0;
  double p95_delay_us = 0.0;
  double p99_delay_us = 0.0;
  double ci95_delay_us = 0.0;  ///< batch-means 95% half-width on the mean

  double mean_service_us = 0.0;  ///< execution time only (cache effects + overheads)
  double mean_lock_wait_us = 0.0;

  double offered_rate_per_us = 0.0;    ///< configured aggregate arrival rate
  double throughput_per_us = 0.0;      ///< completions per µs in the window
  double utilization = 0.0;            ///< mean busy processors / N
  double mean_queue_len = 0.0;         ///< time-averaged waiting packets

  std::uint64_t arrived = 0;
  std::uint64_t completed = 0;
  std::uint64_t backlog_end = 0;  ///< packets waiting or in service at the end

  /// True when the offered load exceeded capacity (backlog grew through the
  /// measurement window); delay numbers are then transient artifacts.
  bool saturated = false;

  /// Adaptive hybrid: number of stream reclassifications performed.
  std::uint64_t reclassifications = 0;

  /// Work stealing (LockingPolicy::kStealAffinity): steal operations and
  /// the job migrations they made (>= steals when batches > 1). A thief
  /// queues the rest of its batch, where another thief can take a job
  /// again, so stolen_jobs counts a job once per theft and can exceed the
  /// number of distinct jobs stolen, even the number of packets arrived.
  std::uint64_t steals = 0;
  std::uint64_t stolen_jobs = 0;
  /// Measured reload cost charged to stolen jobs inside the window (µs):
  /// their per-level reload transients plus the flat steal penalty. An
  /// upper bound on the migration's extra cache cost, asserted against the
  /// Gu et al. steal-cache-complexity envelope (cache/steal_bound.hpp).
  double steal_reload_us = 0.0;
  /// NIC dispatch front-end (SimConfig::dispatch): FDir/TFN pin moves.
  std::uint64_t flow_migrations = 0;
  /// TransportFriendly dispatch ledger (all zero for the other modes):
  /// consumer feedback accepted, repin proposals parked behind in-flight
  /// frames, parked proposals applied after drain, and proposals dropped as
  /// stale past the feedback window.
  std::uint64_t tfn_feedback = 0;
  std::uint64_t tfn_deferred = 0;
  std::uint64_t tfn_applied = 0;
  std::uint64_t tfn_stale = 0;

  /// Bounded flow table (SimConfig::flow): admission ledger. Conservation
  /// extends to arrived == completed_total + backlog + flow_shed; evictions
  /// cost warm state (cold reload on the next packet), never packets.
  std::uint64_t flow_inserts = 0;
  std::uint64_t flow_hits = 0;
  std::uint64_t flow_evictions = 0;
  std::uint64_t flow_shed = 0;        ///< packets refused by load shedding
  std::uint64_t flow_occupancy = 0;   ///< live entries at the end of the run
  std::uint64_t flow_capacity = 0;    ///< fixed entry capacity (0 = disabled)

  /// Mean delay per stream (same order as the StreamSet), if requested.
  std::vector<double> per_stream_mean_delay_us;
};

}  // namespace affinity
