/// \file spans.hpp
/// In-memory span recorder for the traced run. The benchmark opens a
/// span around each call it makes into a layer; a span records its
/// layer name, start, end, parent span and batch id, plus two counts
/// taken at the same boundary (items that entered the layer, and the
/// layer's useful outcomes: packets parsed, cache hits, lookups,
/// matches). Totals per layer are kept for every span; the spans
/// themselves are kept up to a limit and written once, at the end of
/// the run, as chrome-trace JSON.
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "report.hpp"

namespace perfbench {

/// Per-layer totals over every span of that layer.
struct LayerTotals {
  u64 spans = 0;
  u64 total_ns = 0;  ///< sum of span durations
  u64 self_ns = 0;   ///< durations minus the time child spans cover
  u64 items = 0;
  u64 work = 0;
};

class Tracer {
 public:
  static constexpr std::size_t kNoParent = ~std::size_t{0};

  explicit Tracer(std::size_t keep_limit) : keep_limit_(keep_limit) {}

  /// Register a layer name; returns its id.
  std::size_t layer(std::string_view name) {
    names_.emplace_back(name);
    totals_.emplace_back();
    return names_.size() - 1;
  }

  /// Open a span of layer \p name at \p t_ns, nested in the innermost
  /// open span. Whether a tree of spans is kept is decided when its
  /// root opens, so a kept child never points at a dropped parent.
  void open(std::size_t name, u64 batch, u64 t_ns) {
    if (open_.empty()) keeping_ = spans_.size() < keep_limit_;
    Open o;
    o.name = name;
    o.batch = batch;
    o.start = t_ns;
    o.parent_slot = open_.empty() ? kNoParent : open_.back().slot;
    o.slot = kNoParent;
    if (keeping_) {
      o.slot = spans_.size();
      spans_.push_back({name, o.parent_slot, batch, t_ns, t_ns, 0, 0});
    }
    open_.push_back(o);
  }

  /// Close the innermost open span at \p t_ns with its boundary counts.
  void close(u64 t_ns, u64 items, u64 work) {
    const Open o = open_.back();
    open_.pop_back();
    const u64 dur = t_ns > o.start ? t_ns - o.start : 0;
    LayerTotals& t = totals_[o.name];
    ++t.spans;
    t.total_ns += dur;
    t.self_ns += dur > o.child_ns ? dur - o.child_ns : 0;
    t.items += items;
    t.work += work;
    if (!open_.empty()) open_.back().child_ns += dur;
    if (o.slot != kNoParent) {
      Span& s = spans_[o.slot];
      s.end = t_ns;
      s.items = items;
      s.work = work;
    } else {
      ++dropped_;
    }
  }

  [[nodiscard]] const LayerTotals& totals(std::size_t name) const {
    return totals_[name];
  }
  [[nodiscard]] std::size_t kept() const { return spans_.size(); }
  [[nodiscard]] u64 dropped() const { return dropped_; }

  /// Chrome-trace ("X" complete events, microseconds relative to the
  /// first kept span) of every kept span.
  void write_chrome_trace(std::ostream& os) const {
    const u64 t0 = spans_.empty() ? 0 : spans_.front().start;
    os << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i == 0 ? "\n" : ",\n") << "{\"name\": " << json_string(names_[s.name])
         << ", \"cat\": \"layer\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
         << ", \"ts\": " << json_number(static_cast<double>(s.start - t0) / 1e3)
         << ", \"dur\": " << json_number(static_cast<double>(s.end - s.start) / 1e3)
         << ", \"args\": {\"span\": " << i << ", \"parent\": "
         << (s.parent == kNoParent ? std::string("null")
                                   : std::to_string(s.parent))
         << ", \"batch\": " << s.batch << ", \"items\": " << s.items
         << ", \"work\": " << s.work << "}}";
    }
    os << "\n], \"otherData\": {\"spans_dropped\": " << dropped_ << "}}\n";
  }

 private:
  struct Span {
    std::size_t name;
    std::size_t parent;  ///< index into spans_, or kNoParent
    u64 batch;
    u64 start;
    u64 end;
    u64 items;
    u64 work;
  };
  struct Open {
    std::size_t name = 0;
    u64 batch = 0;
    u64 start = 0;
    u64 child_ns = 0;
    std::size_t parent_slot = kNoParent;
    std::size_t slot = kNoParent;
  };

  std::size_t keep_limit_;
  bool keeping_ = true;
  std::vector<std::string> names_;
  std::vector<LayerTotals> totals_;
  std::vector<Span> spans_;
  std::vector<Open> open_;
  u64 dropped_ = 0;
};

}  // namespace perfbench
