#include "fvc/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "fvc/obs/run_metrics.hpp"

namespace fvc::obs {
namespace {

TEST(LogHistogram, BucketBoundaries) {
  // Bucket 0 holds zeros and ones; bucket b holds [2^(b-1)... doubling.
  EXPECT_EQ(LogHistogram::bucket_of(0), 0u);
  EXPECT_EQ(LogHistogram::bucket_of(1), 0u);
  EXPECT_EQ(LogHistogram::bucket_of(2), 1u);
  EXPECT_EQ(LogHistogram::bucket_of(3), 1u);
  EXPECT_EQ(LogHistogram::bucket_of(4), 2u);
  EXPECT_EQ(LogHistogram::bucket_of(7), 2u);
  EXPECT_EQ(LogHistogram::bucket_of(8), 3u);
  // The last bucket is open-ended.
  EXPECT_EQ(LogHistogram::bucket_of(std::uint64_t{1} << 60),
            LogHistogram::kBuckets - 1);
}

TEST(LogHistogram, AddTotalEmpty) {
  LogHistogram h;
  EXPECT_TRUE(h.empty());
  h.add(0);
  h.add(5);
  h.add(5);
  EXPECT_FALSE(h.empty());
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(LogHistogram::bucket_of(5)), 2u);
}

TEST(LogHistogram, MergeIsElementWise) {
  LogHistogram a;
  LogHistogram b;
  a.add(1);
  a.add(100);
  b.add(100);
  b.add(4000);
  a.merge(b);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_EQ(a.bucket(LogHistogram::bucket_of(100)), 2u);
}

TEST(LogHistogram, MergeOrderInvariant) {
  // The deterministic-totals contract: merging per-worker histograms in any
  // order yields the same result.
  LogHistogram a;
  LogHistogram b;
  LogHistogram c;
  for (std::uint64_t v : {1u, 3u, 9u, 200u}) {
    a.add(v);
  }
  for (std::uint64_t v : {2u, 9u, 512u}) {
    b.add(v);
  }
  LogHistogram ab = a;
  ab.merge(b);
  LogHistogram ba = b;
  ba.merge(a);
  EXPECT_EQ(ab, ba);
  c.merge(ab);
  EXPECT_EQ(c, ab);
}

TEST(DurationStats, TracksMinMeanMaxSum) {
  DurationStats d;
  EXPECT_EQ(d.count(), 0u);
  EXPECT_EQ(d.min(), 0u);
  EXPECT_DOUBLE_EQ(d.mean(), 0.0);
  d.add(10);
  d.add(30);
  d.add(20);
  EXPECT_EQ(d.count(), 3u);
  EXPECT_EQ(d.min(), 10u);
  EXPECT_EQ(d.max(), 30u);
  EXPECT_EQ(d.sum(), 60u);
  EXPECT_DOUBLE_EQ(d.mean(), 20.0);
}

TEST(DurationStats, MergeHandlesEmptySides) {
  DurationStats a;
  DurationStats empty;
  a.add(5);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 5u);
  DurationStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(b.min(), 5u);
  EXPECT_EQ(b.max(), 5u);
}

TEST(MonotonicNs, NonDecreasing) {
  const std::uint64_t a = monotonic_ns();
  const std::uint64_t b = monotonic_ns();
  EXPECT_LE(a, b);
}

TEST(MetricsNode, CountersAddAndSet) {
  MetricsNode node("test");
  EXPECT_FALSE(node.has_counter("x"));
  EXPECT_DOUBLE_EQ(node.counter("x"), 0.0);
  node.add("x", 2.0);
  node.add("x", 3.0);
  node.set("y", 7.0);
  EXPECT_TRUE(node.has_counter("x"));
  EXPECT_DOUBLE_EQ(node.counter("x"), 5.0);
  EXPECT_DOUBLE_EQ(node.counter("y"), 7.0);
}

TEST(MetricsNode, ChildrenFindOrCreateKeepInsertionOrder) {
  MetricsNode node("root");
  MetricsNode& b = node.child("b");
  MetricsNode& a = node.child("a");
  EXPECT_EQ(&node.child("b"), &b);  // find, not re-create
  EXPECT_EQ(&node.child("a"), &a);
  ASSERT_EQ(node.children().size(), 2u);
  EXPECT_EQ(node.children()[0]->name(), "b");
  EXPECT_EQ(node.children()[1]->name(), "a");
  EXPECT_EQ(node.find_child("a"), &a);
  EXPECT_EQ(node.find_child("missing"), nullptr);
}

TEST(MetricsNode, MergeIsRecursive) {
  MetricsNode a("n");
  a.add("hits", 1.0);
  a.child("inner").add("deep", 2.0);
  a.histogram("h").add(4);
  a.add_elapsed_ns(10);

  MetricsNode b("n");
  b.add("hits", 2.0);
  b.child("inner").add("deep", 3.0);
  b.child("only_b").add("z", 1.0);
  b.histogram("h").add(4);
  b.add_elapsed_ns(5);

  a.merge(b);
  EXPECT_DOUBLE_EQ(a.counter("hits"), 3.0);
  EXPECT_DOUBLE_EQ(a.child("inner").counter("deep"), 5.0);
  EXPECT_DOUBLE_EQ(a.child("only_b").counter("z"), 1.0);
  EXPECT_EQ(a.histogram("h").total(), 2u);
  EXPECT_EQ(a.elapsed_ns(), 15u);
}

TEST(Span, AttributesElapsedTime) {
  MetricsNode node("timed");
  {
    Span span(node);
  }
  // Steady-clock spans can legitimately measure 0ns on a fast machine, but
  // two sequential spans accumulate (elapsed adds, never overwrites).
  const std::uint64_t first = node.elapsed_ns();
  {
    Span span(node);
  }
  EXPECT_GE(node.elapsed_ns(), first);
}

TEST(Span, StopIsIdempotent) {
  MetricsNode node("timed");
  Span span(node);
  span.stop();
  const std::uint64_t after_stop = node.elapsed_ns();
  span.stop();  // no double-attribution
  EXPECT_EQ(node.elapsed_ns(), after_stop);
}

TEST(RunMetrics, SchemaAndLabels) {
  RunMetrics m;
  EXPECT_EQ(RunMetrics::kSchema, "fvc.metrics/1");
  EXPECT_EQ(m.root().name(), "run");
  m.set_label("command", "simulate");
  m.set_label("command", "map");  // last write wins
  ASSERT_EQ(m.labels().count("command"), 1u);
  EXPECT_EQ(m.labels().at("command"), "map");
}

}  // namespace
}  // namespace fvc::obs
