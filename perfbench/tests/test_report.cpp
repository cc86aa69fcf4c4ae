/// Tests of the benchmark's own statistics, ratio, span and report code.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "report.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

TEST(Percentile, NearestRank) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(percentile(v, 0), 1);
  EXPECT_EQ(percentile(v, 20), 1);
  EXPECT_EQ(percentile(v, 21), 2);
  EXPECT_EQ(percentile(v, 50), 3);
  EXPECT_EQ(percentile(v, 99), 5);
  EXPECT_EQ(percentile(v, 100), 5);
  EXPECT_EQ(percentile({}, 50), 0);
}

TEST(Percentile, NinetyNinthOfHundred) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 99), 99);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
  EXPECT_EQ(median({7}), 7);
  EXPECT_EQ(median({}), 0);
}

TEST(InterquartileMean, DropsTheOuterQuarters) {
  EXPECT_EQ(interquartile_mean({100, 1, 2, 3, 4, 5, 6, -50}), 3.5);
  EXPECT_EQ(interquartile_mean({4, 2, 3}), 3);  // under four: plain mean
  EXPECT_EQ(interquartile_mean({}), 0);
}

TEST(InterquartileMean, MovesSmoothlyBetweenTwoClusters) {
  // Eleven of twenty samples in the low cluster, then nine: the median
  // jumps across the gap, the interquartile mean moves by one sample.
  std::vector<double> a(11, 100.0), b(9, 100.0);
  a.resize(20, 200.0);
  b.resize(20, 200.0);
  EXPECT_EQ(median(a), 100);
  EXPECT_EQ(median(b), 200);
  EXPECT_NEAR(interquartile_mean(b) - interquartile_mean(a), 20, 1e-9);
}

TEST(Ratio, ZeroDenominatorIsZero) {
  EXPECT_EQ(ratio(3, 0), 0);
  EXPECT_EQ(ratio(0, 0), 0);
  EXPECT_EQ(ratio(3, 4), 0.75);
}

TEST(Histogram, BucketsRoundTrip) {
  for (std::size_t i = 0; i + 1 < Histogram::kBuckets; ++i) {
    const u64 lo = Histogram::bucket_floor(i);
    EXPECT_EQ(Histogram::bucket_of(lo), i);
    EXPECT_LT(lo, Histogram::bucket_floor(i + 1));
    if (lo > 0) EXPECT_EQ(Histogram::bucket_of(lo - 1), i - 1);
  }
  EXPECT_EQ(Histogram::bucket_of(~u64{0}), Histogram::kBuckets - 1);
}

TEST(Histogram, SmallValuesAreExact) {
  Histogram h;
  for (u64 v = 1; v <= 100; ++v) h.record(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_EQ(h.percentile(50), 50);
  EXPECT_EQ(h.percentile(99), 99);
  EXPECT_EQ(h.percentile(100), 100);
  EXPECT_EQ(h.percentile(0), 1);
}

TEST(Histogram, LargeValuesWithinOnePercent) {
  Histogram h;
  std::vector<double> exact;
  for (u64 k = 0; k < 10000; ++k) {
    const u64 v = 1000 + k * 997;  // 1 us .. ~10 ms in ns
    h.record(v);
    exact.push_back(static_cast<double>(v));
  }
  for (const double p : {10.0, 50.0, 90.0, 99.0}) {
    const double want = percentile(exact, p);
    EXPECT_NEAR(h.percentile(p), want, want * 0.01) << p;
  }
}

TEST(Histogram, EmptyReadsZero) {
  const Histogram h;
  EXPECT_EQ(h.percentile(50), 0);
  EXPECT_EQ(h.mean(), 0);
}

TEST(Ledger, CountsAndMessages) {
  Ledger l;
  EXPECT_FALSE(l.correct());  // nothing attempted is not a pass
  l.add(10, 0, "a");
  EXPECT_TRUE(l.correct());
  l.add(5, 2, "b");
  EXPECT_FALSE(l.correct());
  EXPECT_EQ(l.attempted(), 15u);
  EXPECT_EQ(l.failed(), 2u);
  ASSERT_EQ(l.messages().size(), 1u);
  EXPECT_EQ(l.messages()[0], "b: 2 of 5 failed");
}

TEST(Json, NumbersKeepEveryDigit) {
  EXPECT_EQ(json_number(0.1), "0.1");
  EXPECT_EQ(json_number(123456.789012345), "123456.789012345");
  EXPECT_EQ(std::stod(json_number(1.0 / 3.0)), 1.0 / 3.0);
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(INFINITY), "null");
}

TEST(Json, StringsAreEscaped) {
  EXPECT_EQ(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(json_string("x\ny"), "\"x\\u000ay\"");
}

TEST(Json, ResultLineHasExactlyTheFourKeys) {
  Ledger l;
  l.add(1000, 0, "packets");
  const std::string line =
      result_line(l, {{"latency_ms", 1.25, "ms"}, {"setup_s", 0.5, "s"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
  l.add(1, 1, "x");
  EXPECT_EQ(result_line(l, {}).rfind("{\"correct\": false", 0), 0u);
}

TEST(Tracer, SelfTimeExcludesChildren) {
  Tracer t(100);
  const std::size_t batch = t.layer("batch");
  const std::size_t a = t.layer("a");
  const std::size_t b = t.layer("b");
  t.open(batch, 0, 1000);
  t.open(a, 0, 1100);
  t.close(1400, 32, 30);  // a: 300
  t.open(b, 0, 1400);
  t.close(1900, 2, 2);    // b: 500
  t.close(2000, 32, 32);  // batch: 1000, self 200
  EXPECT_EQ(t.totals(batch).total_ns, 1000u);
  EXPECT_EQ(t.totals(batch).self_ns, 200u);
  EXPECT_EQ(t.totals(a).self_ns, 300u);
  EXPECT_EQ(t.totals(a).items, 32u);
  EXPECT_EQ(t.totals(a).work, 30u);
  EXPECT_EQ(t.totals(b).self_ns, 500u);
  EXPECT_EQ(t.kept(), 3u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Tracer, KeepLimitDropsWholeTreesButKeepsTotals) {
  Tracer t(2);
  const std::size_t batch = t.layer("batch");
  const std::size_t a = t.layer("a");
  for (u64 k = 0; k < 3; ++k) {
    t.open(batch, k, 100 * k);
    t.open(a, k, 100 * k + 10);
    t.close(100 * k + 20, 1, 1);
    t.close(100 * k + 50, 1, 1);
  }
  EXPECT_EQ(t.kept(), 2u);     // the first tree only
  EXPECT_EQ(t.dropped(), 4u);  // the other two trees
  EXPECT_EQ(t.totals(a).spans, 3u);
  EXPECT_EQ(t.totals(batch).self_ns, 3u * 40u);
}

TEST(Tracer, ChromeTraceNamesParentsAndBatches) {
  Tracer t(10);
  const std::size_t batch = t.layer("batch");
  const std::size_t a = t.layer("core.classifier");
  t.open(batch, 7, 5000);
  t.open(a, 7, 6000);
  t.close(8500, 3, 2);
  t.close(9000, 32, 32);
  std::ostringstream os;
  t.write_chrome_trace(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(s.find("\"name\": \"core.classifier\""), std::string::npos);
  EXPECT_NE(s.find("\"ts\": 1, \"dur\": 2.5"), std::string::npos);
  EXPECT_NE(s.find("\"parent\": 0, \"batch\": 7, \"items\": 3, \"work\": 2"),
            std::string::npos);
  EXPECT_NE(s.find("\"parent\": null"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
