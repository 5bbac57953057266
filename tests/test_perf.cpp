// Perf module tests: table formatting, useful-bandwidth accounting math,
// (cheap, loose) sanity checks on the machine probes, and the online tuner
// behind LoopChain's seed-tile sizing.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "perf/probes.hpp"
#include "perf/table.hpp"
#include "perf/tuner.hpp"

namespace {

using namespace opv;

TEST(Table, AlignsColumnsAndKeepsContent) {
  perf::Table t({"kernel", "time", "BW"});
  t.add_row({"save_soln", "4.08", "45"});
  t.add_row({"adt_calc", "12.7", "25"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("kernel"), std::string::npos);
  EXPECT_NE(s.find("save_soln"), std::string::npos);
  EXPECT_NE(s.find("adt_calc"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("|--"), std::string::npos);
  // Three header columns -> four pipes per row.
  const auto first_line = s.substr(0, s.find('\n'));
  EXPECT_EQ(std::count(first_line.begin(), first_line.end(), '|'), 4);
}

TEST(Table, ShortRowsArePadded) {
  perf::Table t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_NO_THROW(t.to_string());
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(perf::Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(perf::Table::num(3.0, 0), "3");
  EXPECT_EQ(perf::Table::pct(0.5, 1), "50.0%");
}

TEST(Accounting, UsefulBandwidthMatchesHand) {
  KernelInfo info;
  info.name = "k";
  info.direct_read = 4;
  info.direct_write = 4;
  info.flops = 10;
  LoopRecord rec;
  rec.seconds = 2.0;
  rec.elements = 1'000'000;
  // 8 values * 8 bytes * 1e6 elements / 2 s = 32e6 B/s = 0.032 GB/s.
  EXPECT_NEAR(perf::useful_gbs(info, 8, rec), 0.032, 1e-9);
  EXPECT_NEAR(perf::useful_gbs(info, 4, rec), 0.016, 1e-9);
  // 10 flops * 1e6 / 2 s = 5e6 = 0.005 GFLOP/s.
  EXPECT_NEAR(perf::useful_gflops(info, rec), 0.005, 1e-12);
}

TEST(Accounting, ZeroTimeIsSafe) {
  KernelInfo info;
  info.direct_read = 1;
  LoopRecord rec;  // seconds == 0
  EXPECT_EQ(perf::useful_gbs(info, 8, rec), 0.0);
  EXPECT_EQ(perf::useful_gflops(info, rec), 0.0);
}

TEST(KernelInfoMath, FlopPerByte) {
  KernelInfo k;
  k.direct_read = 4;
  k.direct_write = 1;
  k.indirect_read = 8;
  k.flops = 64;
  // 13 values -> 104 bytes DP, 52 bytes SP.
  EXPECT_NEAR(k.flop_per_byte(8), 64.0 / 104.0, 1e-12);
  EXPECT_NEAR(k.flop_per_byte(4), 64.0 / 52.0, 1e-12);
  KernelInfo empty;
  EXPECT_EQ(empty.flop_per_byte(8), 0.0);
}

TEST(Probes, StreamReportsPlausibleNumbers) {
  // Tiny arrays: we only check the plumbing, not peak numbers.
  const auto r = perf::stream_bandwidth(1 << 20, 2, 2);
  EXPECT_GT(r.copy_gbs, 0.1);
  EXPECT_GT(r.triad_gbs, 0.1);
  EXPECT_LT(r.best(), 10000.0);
  EXPECT_GE(r.best(), r.copy_gbs);
}

TEST(Probes, VectorFlopsBeatScalarFlops) {
  // Few threads & the relation that justifies the whole paper: wider
  // vectors -> more FLOPs. Allow generous slack for a noisy CI box.
  const double scalar = perf::flops_peak_dp(1, 2);
  const double vec = perf::flops_peak_dp(8, 2);
  EXPECT_GT(scalar, 0.0);
  EXPECT_GT(vec, scalar * 1.5);
}

TEST(Probes, SqrtVectorFasterPerOp) {
  const auto r = perf::sqrt_throughput_dp();
  EXPECT_GT(r.scalar_ns_per_op, 0.0);
  EXPECT_GT(r.vector_ns_per_op, 0.0);
  EXPECT_LT(r.vector_ns_per_op, r.scalar_ns_per_op);
}

// ---- OnlineTuner -------------------------------------------------------------

TEST(OnlineTuner, RejectsBadConstruction) {
  using Sizes = std::vector<int>;
  EXPECT_THROW(perf::OnlineTuner(Sizes{}), Error);
  EXPECT_THROW(perf::OnlineTuner(Sizes{64, 100}), Error);  // not a multiple of 16
  EXPECT_THROW(perf::OnlineTuner(Sizes{0}), Error);
  EXPECT_THROW(perf::OnlineTuner(Sizes{-16}), Error);
  EXPECT_THROW(perf::OnlineTuner(Sizes{64}, 0), Error);  // reps < 1
  EXPECT_NO_THROW(perf::OnlineTuner(Sizes{16, 64}, 1));
}

TEST(OnlineTuner, SettlesOnFastestAfterCandidatesTimesReps) {
  const std::vector<int> sizes = {64, 128, 256};
  // Per pass: 128 leads the first, 256 posts the best time of all in the
  // second. The tuner keeps each candidate's best time.
  const double cost[2][3] = {{3.0, 1.0, 2.0}, {3.0, 1.5, 0.5}};
  perf::OnlineTuner t(sizes, 2);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      ASSERT_FALSE(t.settled()) << "settled after only " << pass * 3 + i << " observations";
      ASSERT_EQ(t.propose(), sizes[i]) << "candidates are proposed in order";
      t.observe(sizes[i], cost[pass][i]);
    }
    if (pass == 0) EXPECT_EQ(t.best(), 128);
  }
  EXPECT_TRUE(t.settled());
  EXPECT_EQ(t.best(), 256);
  EXPECT_EQ(t.propose(), 256);
  t.observe(256, 9.0);  // settled: later observations change nothing
  EXPECT_EQ(t.propose(), 256);
}

TEST(OnlineTuner, IgnoresObservationsOfOtherSizes) {
  perf::OnlineTuner t({64, 128}, 1);
  t.observe(128, 0.1);  // the current candidate is 64
  EXPECT_EQ(t.propose(), 64);
  EXPECT_EQ(t.best(), 0);
  EXPECT_TRUE(t.samples().empty());
  t.observe(64, 1.0);
  EXPECT_EQ(t.propose(), 128);
  t.observe(64, 0.01);  // no longer current: neither advances nor wins
  EXPECT_EQ(t.propose(), 128);
  t.observe(128, 2.0);
  EXPECT_TRUE(t.settled());
  EXPECT_EQ(t.best(), 64);
  EXPECT_EQ(t.samples().size(), 2u);
}

}  // namespace
