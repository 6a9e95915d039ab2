// spans.hpp — the traced run's span log: name, start, end and parent of
// every span the benchmark opens around a call batch into a layer. Spans
// are kept in memory and written out once, when the run ends. With the log
// disabled (the untraced run) opening a span is one branch.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int parent;  ///< index of the enclosing span, -1 at the root
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {
    if (enabled_) spans_.reserve(4096);
  }

  void setEnabled(bool on) noexcept { enabled_ = on; }

  /// Opens a span around the enclosing scope (names must be literals).
  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(log.enabled_ ? &log : nullptr) {
      if (log_ == nullptr) return;
      index_ = static_cast<int>(log_->spans_.size());
      log_->spans_.push_back(Span{name, log_->nowUs(), 0.0, log_->open_});
      log_->open_ = index_;
    }
    ~Scope() {
      if (log_ == nullptr) return;
      log_->spans_[static_cast<std::size_t>(index_)].end_us = log_->nowUs();
      log_->open_ = log_->spans_[static_cast<std::size_t>(index_)].parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int index_ = -1;
  };

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Per span name: total duration and self time (duration minus the part
  /// covered by direct children), both in ms.
  struct Totals {
    double total_ms = 0.0;
    double self_ms = 0.0;
    std::size_t count = 0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const double dur = spans_[i].end_us - spans_[i].start_us;
      Totals& t = out[spans_[i].name];
      t.total_ms += dur / 1e3;
      t.self_ms += (dur - child_us[i]) / 1e3;
      ++t.count;
    }
    return out;
  }

  /// Writes {"spans": [{"id", "name", "start_us", "end_us", "parent"}...]}.
  bool writeJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"spans\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, \"parent\": %d}",
                   i == 0 ? "" : ",", i, s.name, s.start_us, s.end_us, s.parent);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  [[nodiscard]] double nowUs() const noexcept {
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  int open_ = -1;
};

}  // namespace perfbench
