// In-memory span recorder for the traced benchmark run.
//
// Spans are opened and closed by benchmark code around calls into the
// program's layers. Each span records its name, start, end, parent and
// the id of the batch it belongs to. Self time (duration minus the time
// covered by child spans) is aggregated per name as spans close, so the
// per-layer split is exact even when the stored span list hits its cap.
// The stored spans are written out once, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  ///< index into spans(), -1 for a root span
    std::uint32_t batch = 0;
  };
  struct Totals {
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };

  explicit Tracer(std::size_t max_spans = 400'000) : max_spans_{max_spans} {
    spans_.reserve(max_spans_);
  }

  void set_batch(std::uint32_t batch) { batch_ = batch; }

  void begin(const char* name) {
    Open open;
    open.name = name;
    open.start_ns = now_ns();
    open.stored = -1;
    if (spans_.size() < max_spans_) {
      open.stored = static_cast<std::int32_t>(spans_.size());
      Span s;
      s.name = name;
      s.start_ns = open.start_ns;
      s.parent = stack_.empty() ? -1 : stack_.back().stored;
      s.batch = batch_;
      spans_.push_back(s);
    } else {
      ++dropped_;
    }
    stack_.push_back(open);
  }

  void end() {
    const std::int64_t t = now_ns();
    const Open open = stack_.back();
    stack_.pop_back();
    const double duration = static_cast<double>(t - open.start_ns);
    if (open.stored >= 0) spans_[static_cast<std::size_t>(open.stored)].end_ns = t;
    auto it = totals_.find(std::string_view{open.name});
    if (it == totals_.end()) it = totals_.emplace(open.name, Totals{}).first;
    Totals& agg = it->second;
    ++agg.count;
    agg.total_ns += duration;
    agg.self_ns += duration - open.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += duration;
  }

  [[nodiscard]] const std::map<std::string, Totals, std::less<>>& totals() const {
    return totals_;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON ("X" events, microseconds) plus the
  /// per-name self-time table. Returns false when the file cannot be
  /// written.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"dropped_spans\":%llu,\"self_time\":[",
                 static_cast<unsigned long long>(dropped_));
    bool first = true;
    for (const auto& [name, t] : totals_) {
      std::fprintf(f, "%s\n{\"name\":\"%s\",\"count\":%llu,\"total_ns\":%.0f,\"self_ns\":%.0f}",
                   first ? "" : ",", name.c_str(), static_cast<unsigned long long>(t.count),
                   t.total_ns, t.self_ns);
      first = false;
    }
    std::fprintf(f, "],\n\"traceEvents\":[");
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"batch\":%u}}",
                   i == 0 ? "" : ",", s.name, static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent, s.batch);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Open {
    const char* name;
    std::int64_t start_ns;
    double child_ns = 0.0;
    std::int32_t stored;
  };

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::size_t max_spans_;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  std::map<std::string, Totals, std::less<>> totals_;
  std::uint64_t dropped_ = 0;
  std::uint32_t batch_ = 0;
};

/// RAII span; a null tracer records nothing (the untraced path).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name) : tracer_{tracer} {
    if (tracer_ != nullptr) tracer_->begin(name);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench
