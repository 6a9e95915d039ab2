// ledger.hpp — append-only JSON-array perf ledger (BENCH_<date>.json).
//
// A ledger file is a JSON array of row objects, one per recorded benchmark
// run, kept human-diffable: one row per line. appendLedgerRow() splices a
// new row before the closing bracket so the file stays a valid JSON array
// after every append; a missing file is created, an unparsable file is
// rewritten from scratch (the old content is preserved under
// "<path>.corrupt" so a bad write never silently destroys history).
//
// findRegressions() makes the trajectory a check, not just a record: it
// compares a new row's throughput keys against the earlier rows taken the
// same way and names every key that fell by more than run-to-run noise.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace affinity::obs {

/// One ledger row: its numeric and its string fields by key (booleans are
/// read as 1/0). Rows are flat objects, as perf_ledger writes them.
struct LedgerRow {
  std::map<std::string, double> numbers;
  std::map<std::string, std::string> strings;
};

/// A throughput key that fell below its noise-aware threshold.
struct Regression {
  std::string key;
  double value = 0.0;     // the new row's reading
  double baseline = 0.0;  // median of the comparable earlier readings
};

/// Appends `row_json` (a complete JSON object, no trailing comma/newline)
/// to the JSON array in `path`. Returns false on I/O failure.
bool appendLedgerRow(const std::string& path, const std::string& row_json);

/// Number of rows currently in the ledger (0 if missing/unreadable).
/// Counts top-level objects, tolerant of whitespace/newlines.
std::size_t ledgerRowCount(const std::string& path);

/// Parses one row object (`{"key": value, ...}`). Malformed input yields
/// whatever fields parsed before the error.
LedgerRow parseLedgerRow(const std::string& row_json);

/// Every row of the ledger at `path`, in file order (empty if missing or
/// unreadable).
std::vector<LedgerRow> readLedgerRows(const std::string& path);

/// Compares each higher-is-better throughput key of `row` (every
/// `kernel_*_speedup`, and `sim_pkts_per_wall_s`) against the rows of
/// `history` (oldest first) with the same `mode` and `host_cores`; a row
/// without `host_cores` predates the field, when the ledger host had one
/// core, and counts as 1. The baseline is the median of the key's last
/// five comparable readings. A key regresses when it falls below the
/// baseline by more than max(25 %, 3 × the baseline readings' relative
/// median absolute deviation): single runs on the ledger host spread by
/// about ±20 %, and a noisier history widens the band further.
std::vector<Regression> findRegressions(const std::vector<LedgerRow>& history,
                                        const LedgerRow& row);

/// "REGRESSION: <key> <new> vs <baseline>", the greppable report line.
std::string formatRegression(const Regression& r);

}  // namespace affinity::obs
