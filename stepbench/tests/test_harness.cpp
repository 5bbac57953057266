// Tests of the step benchmark's own helpers: percentiles and their
// tail-sample rule, span self times, the metric-name grammar and the
// result line.
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <stdexcept>
#include <thread>

#include "harness.hpp"

namespace stepbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRankValue) {
  EXPECT_EQ(percentile(one_to(100), 0.5), 50.0);
  EXPECT_EQ(percentile(one_to(100), 0.9), 90.0);
  EXPECT_EQ(percentile(one_to(1000), 0.99), 990.0);
  EXPECT_EQ(percentile(one_to(21), 0.5), 11.0);
}

TEST(Percentile, ReportedOnlyWithTenSamplesBeyond) {
  EXPECT_TRUE(percentile(one_to(100), 0.9).has_value());   // 10 above rank 90
  EXPECT_FALSE(percentile(one_to(99), 0.9).has_value());   // 9 above rank 90
  EXPECT_TRUE(percentile(one_to(1000), 0.99).has_value());  // 10 above rank 990
  EXPECT_FALSE(percentile(one_to(999), 0.99).has_value());
  EXPECT_TRUE(percentile(one_to(20), 0.5).has_value());
  EXPECT_FALSE(percentile(one_to(19), 0.5).has_value());
  EXPECT_FALSE(percentile({}, 0.5).has_value());
  EXPECT_FALSE(percentile(one_to(100), 1.0).has_value());
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

Span span(std::int64_t id, std::int64_t parent, double start, double end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start = start;
  s.end = end;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfDirectChildren) {
  const std::vector<Span> spans = {
      span(0, -1, 0.0, 10.0),
      span(1, 0, 1.0, 3.0),    // child
      span(2, 0, 2.0, 5.0),    // overlaps child 1: union [1, 5]
      span(3, 0, 8.0, 12.0),   // runs past the parent: counts [8, 10]
      span(4, 1, 1.5, 2.5),    // grandchild: only its own parent loses it
      span(5, -1, 20.0, 21.0)  // another root, no children
  };
  const auto self = self_times(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 2.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
  EXPECT_DOUBLE_EQ(self[4], 1.0);
  EXPECT_DOUBLE_EQ(self[5], 1.0);
}

TEST(SelfTime, ContainedChildrenAndIdenticalChildren) {
  const std::vector<Span> spans = {span(7, -1, 0.0, 4.0), span(8, 7, 1.0, 3.0),
                                   span(9, 7, 1.5, 2.0), span(10, 7, 1.0, 3.0)};
  EXPECT_DOUBLE_EQ(self_times(spans)[0], 2.0);
}

TEST(Tracer, ScopedSpansNestPerThreadAndInheritTheStep) {
  Tracer tr;
  tr.enable(true);
  {
    ScopedSpan outer(tr, "step", 42);
    { ScopedSpan inner(tr, "dist.wait"); }
    std::thread([&] { ScopedSpan other(tr, "elsewhere"); }).join();
  }
  {
    tr.enable(false);
    ScopedSpan unrecorded(tr, "off");
    EXPECT_GE(unrecorded.stop(), 0.0);
  }
  const auto spans = tr.spans();
  ASSERT_EQ(spans.size(), 3u);
  const Span& inner = spans[0];
  const Span& other = spans[1];
  const Span& outer = spans[2];
  EXPECT_EQ(outer.name, "step");
  EXPECT_EQ(outer.parent, -1);
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(inner.step, 42);
  EXPECT_EQ(other.parent, -1);  // parents never cross threads
  EXPECT_NE(other.thread, outer.thread);
  EXPECT_LE(outer.start, inner.start);
  EXPECT_LE(inner.end, outer.end);
}

TEST(StealPct, ShareOfTheMachinesCpuTime) {
  EXPECT_DOUBLE_EQ(steal_pct({10.0, 1000.0}, {15.0, 1200.0}), 2.5);
  EXPECT_DOUBLE_EQ(steal_pct({10.0, 1000.0}, {10.0, 1000.0}), 0.0);  // no time passed
  EXPECT_DOUBLE_EQ(steal_pct({}, {}), 0.0);                           // no /proc/stat
}

TEST(Extend, RunsWholeSubWindowsUntilTheKeptTimeSpansTheWindow) {
  Window w;
  int calls = 0;
  extend(w, 1.0, [&](Window& x) {
    ++calls;
    x.step_ms.push_back(1.0);
    x.cell_steps += 1e6;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  EXPECT_GE(w.wall, 1.0);
  EXPECT_EQ(w.step_ms.size(), static_cast<std::size_t>(calls));
  EXPECT_GE(w.rates.size(), 2u);
  EXPECT_EQ(w.dropped, 0);
  for (const double r : w.rates) EXPECT_GT(r, 0.0);
}

TEST(SubWindowRates, ConsecutiveSubWindowsFromStepEnds) {
  // Steps of 1e6 cells ending every 0.04 s from t = 10: sub-windows close at
  // the first end at least 0.1 s after the previous close (3 steps in 0.12 s).
  std::vector<double> ends;
  for (int k = 7; k >= 1; --k) ends.push_back(10.0 + 0.04 * k);  // any order
  const auto r = sub_window_rates(ends, 10.0, 1e6);
  ASSERT_EQ(r.size(), 2u);  // the last step alone is left out
  EXPECT_NEAR(r[0], 3.0 / 0.12, 1e-9);
  EXPECT_NEAR(r[1], 3.0 / 0.12, 1e-9);
  EXPECT_TRUE(sub_window_rates({}, 0.0, 1e6).empty());
}

TEST(PickBlocks, LeastStolenFirstUntilTheySpanTheWindow) {
  using V = std::vector<std::size_t>;
  EXPECT_EQ(pick_blocks({1, 1, 1, 1, 1}, {5, 0, 3, 0, 1}, 3.0), (V{1, 3, 4}));
  EXPECT_EQ(pick_blocks({1, 1, 1}, {0, 0, 0}, 2.0), (V{0, 1}));  // earlier first among equals
  EXPECT_EQ(pick_blocks({0.6, 0.6, 0.6}, {0, 0, 0}, 1.0), (V{0, 1}));  // the block crossing counts
  EXPECT_EQ(pick_blocks({1, 1}, {9, 9}, 5.0), (V{0, 1}));  // too few: every block
  EXPECT_TRUE(pick_blocks({}, {}, 1.0).empty());
}

TEST(Window, MergeAddsStepsRatesAndTime) {
  Window a, b;
  a.wall = 1.0;
  a.cell_steps = 2.0;
  a.step_ms = {1.0};
  a.rates = {3.0};
  b.wall = 0.5;
  b.cell_steps = 1.0;
  b.step_ms = {2.0, 4.0};
  b.rates = {5.0};
  b.dropped = 1;
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.wall, 1.5);
  EXPECT_DOUBLE_EQ(a.cell_steps, 3.0);
  EXPECT_EQ(a.step_ms, (std::vector<double>{1.0, 2.0, 4.0}));
  EXPECT_EQ(a.rates, (std::vector<double>{3.0, 5.0}));
  EXPECT_EQ(a.dropped, 1);
}

TEST(IdlePollers, StartAndStop) {
  EXPECT_GE(usable_cpus(), 1);
  const IdlePollers p(2);
  EXPECT_LE(p.running(), 2);
}

TEST(MetricNames, Grammar) {
  EXPECT_TRUE(valid_metric_name("loop.res_calc.stream_pct"));
  EXPECT_TRUE(valid_metric_name("step_ms_p50"));
  EXPECT_TRUE(valid_metric_name("9lives-x"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".hidden"));
  EXPECT_FALSE(valid_metric_name("_x"));
  EXPECT_FALSE(valid_metric_name("a b"));
  EXPECT_FALSE(valid_metric_name("a/b"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
}

TEST(MetricNames, TableIsWellFormedAndUnique) {
  std::set<std::string> seen;
  int e2e = 0, layer = 0;
  for (const MetricSpec& s : metric_specs()) {
    EXPECT_TRUE(valid_metric_name(s.name)) << s.name;
    EXPECT_TRUE(seen.insert(s.name).second) << "duplicate " << s.name;
    EXPECT_FALSE(s.unit.empty());
    EXPECT_LE(s.unit.size(), 16u) << s.unit;
    (s.per_layer ? layer : e2e)++;
  }
  EXPECT_EQ(e2e, 4);
  EXPECT_LE(layer, 128);
  EXPECT_TRUE(seen.count("setup_s"));
}

TEST(ResultLine, CarriesExactlyTheChosenKind) {
  Metrics m = {{"mcell_steps_per_s", 20.5}, {"step_ms_p50", 9.25}, {"setup_s", 1.5},
               {"peak_rss_mb", 70.0}};
  const std::string line = result_json(true, 12, 0, m, false);
  EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {", 0),
            0u);
  EXPECT_NE(line.find("\"step_ms_p50\": {\"value\": 9.25, \"unit\": \"ms\"}"), std::string::npos);

  Metrics missing = m;
  missing.erase("setup_s");
  EXPECT_THROW(result_json(true, 1, 0, missing, false), std::runtime_error);
  Metrics extra = m;
  extra["plan.hits"] = 1.0;
  EXPECT_THROW(result_json(true, 1, 0, extra, false), std::runtime_error);
  Metrics bad = m;
  bad["setup_s"] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(result_json(true, 1, 0, bad, false), std::runtime_error);
}

}  // namespace
}  // namespace stepbench
