// In-memory span recorder for the traced benchmark pass.
//
// A span is one call into a simulator layer made from the benchmark's own
// code: a name (`<module>.<op>`), host start/end (steady clock, ns), the
// enclosing span and the mission it belongs to. Spans stay in memory and are
// written out once, when the run ends. A span's self time is its duration
// minus the durations of its direct children.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  ///< index into spans(), -1 for a root span
    std::uint32_t mission;
  };

  /// Opens a span on construction and closes it on destruction. A null
  /// tracer records nothing, so untraced code paths share the same calls.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
      if (tracer_ == nullptr) return;
      index_ = static_cast<std::int32_t>(tracer_->spans_.size());
      tracer_->spans_.push_back(
          Span{name, now_ns(), 0, tracer_->open_, tracer_->mission_});
      tracer_->open_ = index_;
    }
    ~Scope() {
      if (tracer_ == nullptr) return;
      Span& s = tracer_->spans_[static_cast<std::size_t>(index_)];
      s.end_ns = now_ns();
      tracer_->open_ = s.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
  };

  struct Totals {
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::uint64_t count = 0;
  };

  void set_mission(std::uint32_t id) { mission_ = id; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Total and self time per span name.
  std::map<std::string, Totals> totals() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Totals& t = out[s.name];
      t.total_ns += s.end_ns - s.start_ns;
      t.self_ns += s.end_ns - s.start_ns - child_ns[i];
      ++t.count;
    }
    return out;
  }

  /// One tab-separated line per span: index, parent, mission, name,
  /// start and end in ns relative to the first span.
  void write_tsv(std::ostream& out) const {
    const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "index\tparent\tmission\tname\tstart_ns\tend_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << '\t' << s.parent << '\t' << s.mission << '\t' << s.name
          << '\t' << s.start_ns - base << '\t' << s.end_ns - base << '\n';
    }
  }

 private:
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
  std::uint32_t mission_ = 0;
};

}  // namespace perfbench
