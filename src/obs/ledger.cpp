#include "obs/ledger.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace affinity::obs {

namespace {

bool readAll(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

bool writeAll(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

void skipSpace(const std::string& s, std::size_t& i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])) != 0) ++i;
}

// Reads the JSON string at s[i] == '"' (escapes keep the escaped character:
// ledger strings are dates and modes); leaves i past the closing quote.
bool readString(const std::string& s, std::size_t& i, std::string& out) {
  if (i >= s.size() || s[i] != '"') return false;
  out.clear();
  for (++i; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      out += s[++i];
    } else if (s[i] == '"') {
      ++i;
      return true;
    } else {
      out += s[i];
    }
  }
  return false;
}

// Parses the flat object at s[i] == '{' into `row`; leaves i past its '}'.
bool parseObject(const std::string& s, std::size_t& i, LedgerRow& row) {
  if (i >= s.size() || s[i] != '{') return false;
  ++i;
  std::string key;
  std::string text;
  for (;;) {
    skipSpace(s, i);
    if (i < s.size() && s[i] == '}') {
      ++i;
      return true;
    }
    if (!readString(s, i, key)) return false;
    skipSpace(s, i);
    if (i >= s.size() || s[i] != ':') return false;
    ++i;
    skipSpace(s, i);
    if (i < s.size() && s[i] == '"') {
      if (!readString(s, i, text)) return false;
      row.strings[key] = text;
    } else if (s.compare(i, 4, "true") == 0) {
      row.numbers[key] = 1.0;
      i += 4;
    } else if (s.compare(i, 5, "false") == 0) {
      row.numbers[key] = 0.0;
      i += 5;
    } else {
      const char* begin = s.c_str() + i;
      char* end = nullptr;
      const double v = std::strtod(begin, &end);
      if (end == begin) return false;
      row.numbers[key] = v;
      i += static_cast<std::size_t>(end - begin);
    }
    skipSpace(s, i);
    if (i < s.size() && s[i] == ',') ++i;
  }
}

// The throughput keys the regression check watches (all higher-is-better).
bool isWatched(const std::string& key) {
  static const std::string kPrefix = "kernel_";
  static const std::string kSuffix = "_speedup";
  return key == "sim_pkts_per_wall_s" ||
         (key.size() > kPrefix.size() + kSuffix.size() && key.starts_with(kPrefix) &&
          key.ends_with(kSuffix));
}

std::string modeOf(const LedgerRow& r) {
  const auto it = r.strings.find("mode");
  return it == r.strings.end() ? std::string() : it->second;
}

double hostCoresOf(const LedgerRow& r) {
  const auto it = r.numbers.find("host_cores");
  return it == r.numbers.end() ? 1.0 : it->second;  // predates the field: 1 core
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

constexpr std::size_t kBaselineRows = 5;  // the recent trajectory, not all history
constexpr double kNoiseFloor = 0.25;      // single-run spread on the ledger host
constexpr double kMadFactor = 3.0;

}  // namespace

bool appendLedgerRow(const std::string& path, const std::string& row_json) {
  std::string existing;
  const bool had_file = readAll(path, existing);

  if (had_file) {
    // Valid target shape: "[ ...rows... ]" (possibly "[]"). Splice before
    // the final ']'.
    const auto open = existing.find('[');
    const auto close = existing.rfind(']');
    if (open != std::string::npos && close != std::string::npos && open < close) {
      const std::string body = existing.substr(open + 1, close - open - 1);
      const bool empty = body.find('{') == std::string::npos;
      std::string out = "[\n";
      if (!empty) {
        // Keep existing rows verbatim, trimming trailing whitespace.
        std::string trimmed = body;
        while (!trimmed.empty() &&
               (trimmed.back() == '\n' || trimmed.back() == ' ' || trimmed.back() == '\t')) {
          trimmed.pop_back();
        }
        while (!trimmed.empty() && (trimmed.front() == '\n' || trimmed.front() == ' ')) {
          trimmed.erase(trimmed.begin());
        }
        out += trimmed + ",\n";
      }
      out += row_json + "\n]\n";
      return writeAll(path, out);
    }
    // Unparsable: preserve the old content, then start a fresh array.
    (void)writeAll(path + ".corrupt", existing);
    std::fprintf(stderr, "ledger: %s is not a JSON array; previous content saved to %s.corrupt\n",
                 path.c_str(), path.c_str());
  }
  return writeAll(path, "[\n" + row_json + "\n]\n");
}

std::size_t ledgerRowCount(const std::string& path) {
  std::string content;
  if (!readAll(path, content)) return 0;
  // Rows are top-level objects: count '{' at brace depth 1 relative to the
  // array (good enough for our own writer's output, which never nests
  // objects inside row values beyond one level of braces in strings-free
  // numeric rows).
  std::size_t rows = 0;
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : content) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      if (depth == 0) ++rows;
      ++depth;
    } else if (c == '}') {
      --depth;
    }
  }
  return rows;
}

LedgerRow parseLedgerRow(const std::string& row_json) {
  LedgerRow row;
  std::size_t i = 0;
  skipSpace(row_json, i);
  (void)parseObject(row_json, i, row);
  return row;
}

std::vector<LedgerRow> readLedgerRows(const std::string& path) {
  std::vector<LedgerRow> rows;
  std::string content;
  if (!readAll(path, content)) return rows;
  std::size_t i = content.find('[');
  if (i == std::string::npos) return rows;
  for (++i;;) {
    skipSpace(content, i);
    if (i < content.size() && content[i] == ',') {
      ++i;
      continue;
    }
    LedgerRow row;
    if (!parseObject(content, i, row)) break;  // ']' or malformed: stop
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<Regression> findRegressions(const std::vector<LedgerRow>& history,
                                        const LedgerRow& row) {
  std::vector<Regression> found;
  const std::string mode = modeOf(row);
  const double cores = hostCoresOf(row);
  for (const auto& [key, value] : row.numbers) {
    if (!isWatched(key)) continue;
    std::vector<double> recent;
    for (auto it = history.rbegin(); it != history.rend() && recent.size() < kBaselineRows;
         ++it) {
      if (modeOf(*it) != mode || hostCoresOf(*it) != cores) continue;
      const auto f = it->numbers.find(key);
      if (f != it->numbers.end()) recent.push_back(f->second);
    }
    if (recent.empty()) continue;
    const double baseline = median(recent);
    std::vector<double> deviation;
    for (double x : recent) deviation.push_back(std::abs(x - baseline));
    const double rel_mad = baseline > 0.0 ? median(deviation) / baseline : 0.0;
    const double band = std::max(kNoiseFloor, kMadFactor * rel_mad);
    if (value < baseline * (1.0 - band)) found.push_back(Regression{key, value, baseline});
  }
  return found;
}

std::string formatRegression(const Regression& r) {
  char line[256];
  std::snprintf(line, sizeof line, "REGRESSION: %s %.6g vs %.6g", r.key.c_str(), r.value,
                r.baseline);
  return line;
}

}  // namespace affinity::obs
