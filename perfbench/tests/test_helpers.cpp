// Tests for the benchmark's own helpers: order statistics, span self time,
// and NDJSON reply matching.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "ndjson.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

// --- stats -------------------------------------------------------------------

TEST(Stats, MedianOddEvenAndUnsorted) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Stats, NearestRankPercentile) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(double(i));
  EXPECT_DOUBLE_EQ(percentile(v, 50), 500.0);
  EXPECT_DOUBLE_EQ(percentile(v, 99), 990.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 1000.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 99), 7.0);
  EXPECT_DOUBLE_EQ(percentile({5.0, 1.0, 3.0, 2.0, 4.0}, 20), 1.0);
  EXPECT_THROW(percentile(v, 0), std::invalid_argument);
  EXPECT_THROW(percentile(v, 101), std::invalid_argument);
}

TEST(Stats, WeightedPercentileEqualsExpandedSamples) {
  const std::vector<std::pair<double, std::size_t>> weighted{
      {30.0, 5}, {10.0, 90}, {20.0, 4}, {40.0, 1}};
  std::vector<double> expanded;
  for (const auto& [value, count] : weighted) expanded.insert(expanded.end(), count, value);
  for (double p : {1.0, 50.0, 90.0, 94.0, 95.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(weighted_percentile(weighted, p), percentile(expanded, p)) << p;
  }
  EXPECT_THROW(weighted_percentile({{1.0, 0}}, 50), std::invalid_argument);
}

TEST(Stats, TenBeyondRule) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_TRUE(percentile_supported(1000, 99));
  EXPECT_EQ(samples_beyond(999, 99), 9u);
  EXPECT_FALSE(percentile_supported(999, 99));
  EXPECT_TRUE(percentile_supported(20, 50));
  EXPECT_FALSE(percentile_supported(19, 50));
  EXPECT_FALSE(percentile_supported(0, 50));
  EXPECT_EQ(samples_beyond(100, 100), 0u);
}

// Reference values from Python: statistics.quantiles(values, n=4).
TEST(Stats, QuartilesMatchPythonExclusiveMethod) {
  const auto q10 = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(q10[0], 2.75);
  EXPECT_DOUBLE_EQ(q10[1], 5.5);
  EXPECT_DOUBLE_EQ(q10[2], 8.25);
  const auto q3 = quartiles({3, 1, 2});
  EXPECT_DOUBLE_EQ(q3[0], 1.0);
  EXPECT_DOUBLE_EQ(q3[1], 2.0);
  EXPECT_DOUBLE_EQ(q3[2], 3.0);
  const auto q2 = quartiles({5, 1});  // clamped j, negative delta
  EXPECT_DOUBLE_EQ(q2[0], 0.0);
  EXPECT_DOUBLE_EQ(q2[1], 3.0);
  EXPECT_DOUBLE_EQ(q2[2], 6.0);
  EXPECT_THROW(quartiles({1.0}), std::invalid_argument);
}

TEST(Stats, RelativeIqr) {
  EXPECT_DOUBLE_EQ(relative_iqr({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
                   (8.25 - 2.75) / 5.5);
  EXPECT_DOUBLE_EQ(relative_iqr({0, 0, 0}), 0.0);
}

// --- span self time ----------------------------------------------------------

Span span(std::int64_t start, std::int64_t end, std::int32_t parent) {
  Span s;
  s.name = "s";
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTime, SubtractsDirectChildrenOnly) {
  // root [0,100) > a [10,40) > a1 [15,25); root > b [50,60)
  const std::vector<Span> spans{span(0, 100, -1), span(10, 40, 0),
                                span(15, 25, 1), span(50, 60, 0)};
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 30 - 10);
  EXPECT_EQ(self[1], 30 - 10);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 10);
}

TEST(SelfTime, OverlappingAndOverhangingChildrenCountOnce) {
  const std::vector<Span> spans{span(0, 100, -1), span(10, 50, 0),
                                span(30, 70, 0), span(90, 120, 0)};
  EXPECT_EQ(self_times(spans)[0], 100 - 60 - 10);
}

TEST(SelfTime, TracerNestsScopesAndAggregatesByName) {
  Tracer tracer(true);
  {
    Tracer::Scope outer(tracer, "outer");
    { Tracer::Scope inner(tracer, "inner"); }
    { Tracer::Scope inner(tracer, "inner"); }
  }
  ASSERT_EQ(tracer.spans().size(), 3u);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[2].parent, 0);
  EXPECT_EQ(tracer.durations_ns("inner").size(), 2u);
  const std::vector<LayerRow> rows = tracer.layer_table();
  ASSERT_EQ(rows.size(), 2u);
  for (const LayerRow& row : rows) {
    EXPECT_LE(row.self_ms, row.total_ms);
    if (row.name == "inner") EXPECT_DOUBLE_EQ(row.self_ms, row.total_ms);
  }
  const dtpm::util::JsonValue trace = tracer.chrome_trace();
  const auto& events = trace.find("traceEvents")->as_array();
  EXPECT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].find("ph")->as_string(), "X");
}

TEST(SelfTime, DisabledTracerRecordsNothing) {
  Tracer tracer(false);
  { Tracer::Scope s(tracer, "x"); }
  tracer.record("y", 0, 10, 1);
  EXPECT_TRUE(tracer.spans().empty());
}

// --- NDJSON reply matching ---------------------------------------------------

using Kind = ReplyEvent::Kind;

TEST(ReplyMatcher, OutOfOrderResultsMatchTheirJobs) {
  ReplyMatcher m;
  m.submitted("a");
  m.submitted("b");
  EXPECT_EQ(m.on_line(R"({"reply":"ack","job":"a","queued":1})").kind, Kind::kAck);
  EXPECT_EQ(m.on_line(R"({"reply":"ack","job":"b","queued":2})").kind, Kind::kAck);
  const ReplyEvent b = m.on_line(R"({"reply":"result","job":"b","state":"done"})");
  EXPECT_EQ(b.kind, Kind::kResult);
  EXPECT_EQ(b.job, "b");
  EXPECT_TRUE(b.other_half_seen);
  EXPECT_EQ(m.outstanding(), 1u);
  EXPECT_EQ(m.on_line(R"({"reply":"result","job":"a","state":"done"})").job, "a");
  EXPECT_EQ(m.outstanding(), 0u);
}

TEST(ReplyMatcher, ProgressLinesKeepTheJobPending) {
  ReplyMatcher m;
  m.submitted("f");
  m.on_line(R"({"reply":"ack","job":"f","queued":1})");
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(m.on_line(R"({"reply":"progress","job":"f","done":64,"total":256,"aggregate":{}})")
                  .kind,
              Kind::kProgress);
  }
  EXPECT_EQ(m.outstanding(), 1u);
  EXPECT_EQ(m.on_line(R"({"reply":"result","job":"f","state":"done","devices":256})").kind,
            Kind::kResult);
  EXPECT_EQ(m.on_line(R"({"reply":"progress","job":"f"})").kind, Kind::kUnmatched);
}

TEST(ReplyMatcher, ResultMayOvertakeItsAck) {
  ReplyMatcher m;
  m.submitted("r");
  const ReplyEvent result =
      m.on_line(R"({"reply":"result","job":"r","state":"done","run":{}})");
  EXPECT_EQ(result.kind, Kind::kResult);
  EXPECT_FALSE(result.other_half_seen);
  EXPECT_EQ(m.outstanding(), 0u);
  const ReplyEvent ack = m.on_line(R"({"reply":"ack","job":"r","queued":0})");
  EXPECT_EQ(ack.kind, Kind::kAck);
  EXPECT_TRUE(ack.other_half_seen);
  // Both halves seen: the id is retired and may be reused.
  EXPECT_EQ(m.on_line(R"({"reply":"ack","job":"r","queued":0})").kind,
            Kind::kUnmatched);
  EXPECT_NO_THROW(m.submitted("r"));
}

TEST(ReplyMatcher, JobErrorsAreTerminal) {
  ReplyMatcher m;
  m.submitted("x");
  m.submitted("y");
  m.on_line(R"({"reply":"ack","job":"x","queued":1})");
  // S006: the job ran and failed after its ack.
  const ReplyEvent failed =
      m.on_line(R"({"reply":"error","job":"x","code":"S006","message":"boom"})");
  EXPECT_EQ(failed.kind, Kind::kError);
  EXPECT_TRUE(failed.other_half_seen);
  // S007: refused before any ack.
  const ReplyEvent refused =
      m.on_line(R"({"reply":"error","job":"y","code":"S007","message":"full"})");
  EXPECT_EQ(refused.kind, Kind::kError);
  EXPECT_FALSE(refused.other_half_seen);
  EXPECT_EQ(m.outstanding(), 0u);
}

TEST(ReplyMatcher, UnattributableLinesAreFlagged) {
  ReplyMatcher m;
  m.submitted("a");
  EXPECT_EQ(m.on_line("not json").kind, Kind::kUnmatched);
  EXPECT_EQ(m.on_line(R"({"job":"a"})").kind, Kind::kUnmatched);
  EXPECT_EQ(m.on_line(R"({"reply":"result","job":"zzz","state":"done"})").kind,
            Kind::kUnmatched);
  EXPECT_EQ(m.on_line(R"({"reply":"error","code":"S001","message":"bad"})").kind,
            Kind::kError);
  m.on_line(R"({"reply":"ack","job":"a","queued":1})");
  EXPECT_EQ(m.on_line(R"({"reply":"ack","job":"a","queued":1})").kind, Kind::kUnmatched);
  EXPECT_EQ(m.on_line(R"({"reply":"bye","telemetry":{}})").kind, Kind::kBye);
  EXPECT_EQ(m.outstanding(), 1u);
  EXPECT_THROW(m.submitted("a"), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
