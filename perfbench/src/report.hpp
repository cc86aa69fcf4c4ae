/// \file report.hpp
/// The benchmark's statistics and result-line code: a fine log-linear
/// histogram for timing samples, nearest-rank percentiles over small
/// sample vectors, safe ratios, the pass/fail ledger behind the
/// `correct`/`attempted`/`failed` fields, and the JSON result line
/// (the last line of the benchmark's standard output).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using u64 = std::uint64_t;

/// num / den, or 0 when den is 0 (an empty layer did no work).
[[nodiscard]] inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// Nearest-rank percentile (\p p in 0..100) of \p v: the smallest
/// sample with at least p% of the samples at or below it. 0 for an
/// empty vector.
[[nodiscard]] inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t k =
      std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, v.size());
  return v[k - 1];
}

/// Median: the mean of the two middle samples for an even count.
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Mean of the middle half of \p v (the samples between the first and
/// third quartile; all of them below four samples). It moves smoothly
/// when the samples fall into two clusters in shifting proportions,
/// where a median jumps from one cluster to the other, and it ignores
/// the outer quarters, where samples stalled by the host land.
[[nodiscard]] inline double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() >= 4 ? v.size() / 4 : 0;
  double sum = 0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

/// Log-linear histogram of non-negative integer samples (nanoseconds):
/// exact below 128, then 128 sub-buckets per power of two, so every
/// bucket is under 0.8% wide (dataplane::LatencyHistogram's four
/// sub-buckets, ~12.5%, would quantize a percentile coarser than the
/// benchmark's bounds). Constant memory and O(1) record, so a timing
/// loop of any length neither allocates nor grows the resident set it
/// is measuring.
class Histogram {
 public:
  static constexpr unsigned kSubBits = 7;
  static constexpr u64 kSub = u64{1} << kSubBits;
  static constexpr std::size_t kBuckets = kSub * (64 - kSubBits + 1);

  void record(u64 v) {
    ++buckets_[bucket_of(v)];
    ++count_;
    sum_ += static_cast<double>(v);
    min_ = count_ == 1 ? v : std::min(min_, v);
    max_ = std::max(max_, v);
  }

  [[nodiscard]] u64 count() const { return count_; }
  [[nodiscard]] u64 max() const { return max_; }
  [[nodiscard]] double mean() const {
    return ratio(sum_, static_cast<double>(count_));
  }

  /// Value at percentile \p p (0..100): the nearest-rank sample's
  /// bucket, interpolated at the rank's midpoint share of the bucket's
  /// integer range [floor, next floor - 1] (exact for width-1 buckets),
  /// clamped to the observed range.
  [[nodiscard]] double percentile(double p) const {
    if (count_ == 0) return 0.0;
    const double target = std::clamp(
        std::ceil(p / 100.0 * static_cast<double>(count_)), 1.0,
        static_cast<double>(count_));
    u64 seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const u64 c = buckets_[i];
      if (c == 0) continue;
      if (static_cast<double>(seen + c) >= target) {
        const double lo = static_cast<double>(bucket_floor(i));
        const double hi = static_cast<double>(bucket_floor(i + 1) - 1);
        const double frac =
            (target - static_cast<double>(seen) - 0.5) / static_cast<double>(c);
        const double v = lo + std::clamp(frac, 0.0, 1.0) * (hi - lo);
        return std::clamp(v, static_cast<double>(min_),
                          static_cast<double>(max_));
      }
      seen += c;
    }
    return static_cast<double>(max_);
  }

  [[nodiscard]] static std::size_t bucket_of(u64 v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned e = static_cast<unsigned>(std::bit_width(v)) - 1;
    const u64 sub = (v >> (e - kSubBits)) & (kSub - 1);
    return static_cast<std::size_t>(kSub * (e - kSubBits + 1) + sub);
  }

  /// Smallest value of bucket \p i (bucket_floor(kBuckets) is the
  /// saturated upper edge).
  [[nodiscard]] static u64 bucket_floor(std::size_t i) {
    if (i < kSub) return i;
    if (i >= kBuckets) return ~u64{0};
    const unsigned e = static_cast<unsigned>(i / kSub) + kSubBits - 1;
    const u64 sub = i % kSub;
    return (kSub + sub) << (e - kSubBits);
  }

 private:
  std::array<u64, kBuckets> buckets_{};
  u64 count_ = 0;
  double sum_ = 0;
  u64 min_ = 0;
  u64 max_ = 0;
};

/// What the benchmark checked and how much of it failed: every packet
/// offered, verdict compared and update applied is one attempt.
class Ledger {
 public:
  /// Record \p attempted checks of kind \p what, \p failed of which
  /// failed; the first failure of each call is kept as a message.
  void add(u64 attempted, u64 failed, std::string_view what) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0 && messages_.size() < 16) {
      messages_.push_back(std::string(what) + ": " + std::to_string(failed) +
                          " of " + std::to_string(attempted) + " failed");
    }
  }
  [[nodiscard]] u64 attempted() const { return attempted_; }
  [[nodiscard]] u64 failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return failed_ == 0 && attempted_ > 0; }
  [[nodiscard]] const std::vector<std::string>& messages() const {
    return messages_;
  }

 private:
  u64 attempted_ = 0;
  u64 failed_ = 0;
  std::vector<std::string> messages_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Shortest decimal that reads back as exactly \p v (all its digits,
/// where workload::JsonWriter keeps six); "null" for a non-finite
/// value, which JSON cannot carry.
[[nodiscard]] inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::array<char, 32> buf{};
  const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  return std::string(buf.data(), res.ptr);
}

[[nodiscard]] inline std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::array<char, 8> buf{};
      std::snprintf(buf.data(), buf.size(), "\\u%04x", c);
      out += buf.data();
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// {"name": {"value": v, "unit": "u"}, ...}
[[nodiscard]] inline std::string metrics_object(
    const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// The result line: exactly correct, attempted, failed and metrics.
[[nodiscard]] inline std::string result_line(
    const Ledger& ledger, const std::vector<Metric>& metrics) {
  return std::string("{\"correct\": ") +
         (ledger.correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(ledger.attempted()) +
         ", \"failed\": " + std::to_string(ledger.failed()) +
         ", \"metrics\": " + metrics_object(metrics) + "}";
}

}  // namespace perfbench
