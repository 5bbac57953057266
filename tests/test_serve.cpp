// serve/ensemble.hpp: the ensemble scheduler's correctness bar — bitwise
// Seq equivalence to solo execution regardless of interleaving, per-
// instance stats isolation, fault isolation, and cross-instance plan
// sharing through the content-keyed PlanCache.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "apps/volna/hazard.hpp"
#include "common/worker_pool.hpp"
#include "core/plan.hpp"
#include "mesh/generators.hpp"
#include "serve/ensemble.hpp"

using namespace opv;
using namespace opv::serve;

namespace {

ExecConfig seq_cfg() {
  ExecConfig cfg;
  cfg.backend = Backend::Seq;
  return cfg;
}

/// Bitwise comparison of two float state vectors.
bool bitwise_equal(const aligned_vector<float>& a, const aligned_vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// A trivial instance for scheduler-behavior tests: counts its steps and
/// optionally throws at a given step.
class CountingInstance final : public Instance {
 public:
  explicit CountingInstance(int throw_at = -1) : throw_at_(throw_at) {}
  void step() override {
    const int n = ++steps_;
    if (throw_at_ >= 0 && n >= throw_at_) throw std::runtime_error("instance blew up");
  }
  [[nodiscard]] int steps() const { return steps_; }

 private:
  int steps_ = 0;
  int throw_at_ = -1;
};

}  // namespace

// ---- WorkQueue --------------------------------------------------------------

TEST(WorkQueue, DrainsEachIdOnceWithoutRequeue) {
  WorkQueue q;
  for (int i = 0; i < 8; ++i) q.push(i);
  std::vector<std::atomic<int>> seen(8);
  WorkerPool pool(3);
  pool.run([&](int) {
    while (const auto id = q.acquire()) {
      ++seen[static_cast<std::size_t>(*id)];
      q.release(*id, false);
    }
  });
  for (int i = 0; i < 8; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)].load(), 1);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(WorkQueue, RequeueKeepsItemLiveUntilOwnerStops) {
  WorkQueue q;
  q.push(0);
  int grabs = 0;
  WorkerPool pool(2);
  std::mutex mu;
  pool.run([&](int) {
    while (const auto id = q.acquire()) {
      bool more = false;
      {
        std::lock_guard<std::mutex> lock(mu);
        more = ++grabs < 5;  // requeue 4 times, then retire
      }
      q.release(*id, more);
    }
  });
  EXPECT_EQ(grabs, 5);
}

TEST(WorkQueue, AcquireReturnsNulloptWhenEmptyAndIdle) {
  WorkQueue q;
  EXPECT_FALSE(q.acquire().has_value());
  q.push(1);
  q.close();
  EXPECT_FALSE(q.acquire().has_value());
}

// ---- StatsScope -------------------------------------------------------------

TEST(StatsScope, PrefixesSlotNamesPerThread) {
  auto& reg = StatsRegistry::instance();
  LoopRecord* plain = &reg.slot("scope_probe");
  LoopRecord* scoped = nullptr;
  {
    StatsScope scope("tenant");
    EXPECT_EQ(StatsScope::current(), "tenant");
    scoped = &reg.slot("scope_probe");
    EXPECT_NE(plain, scoped);
  }
  EXPECT_EQ(StatsScope::current(), "");
  EXPECT_EQ(plain, &reg.slot("scope_probe"));
  EXPECT_EQ(scoped, &reg.slot("tenant/scope_probe"));  // the name it resolved to

  // Scopes are thread-local: another thread sees no scope.
  StatsScope scope("outer");
  std::string other;
  std::thread t([&] { other = StatsScope::current(); });
  t.join();
  EXPECT_EQ(other, "");
}

// ---- scheduling behavior ----------------------------------------------------

TEST(Ensemble, RunsEveryInstanceExactlyStepsTimes) {
  EnsembleOptions opts;
  opts.name = "count_ens";
  opts.workers = 3;
  opts.batch_steps = 2;
  Ensemble ens(opts);
  ens.add_instances(7, [](int) { return std::make_unique<CountingInstance>(); });
  const auto rep = ens.run(11);
  EXPECT_EQ(rep.completed, 7);
  EXPECT_EQ(rep.failed, 0);
  EXPECT_EQ(rep.steps, 7 * 11);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(dynamic_cast<const CountingInstance&>(ens.instance(i)).steps(), 11);
    EXPECT_EQ(rep.instances[static_cast<std::size_t>(i)].steps_done, 11);
  }
}

TEST(Ensemble, ExceptionInOneInstanceDoesNotPoisonSiblings) {
  EnsembleOptions opts;
  opts.name = "faulty_ens";
  opts.workers = 2;
  Ensemble ens(opts);
  for (int i = 0; i < 4; ++i)
    ens.add_instance([i](int) {
      return std::make_unique<CountingInstance>(i == 1 ? 3 : -1);  // #1 throws at step 3
    });
  const auto rep = ens.run(10);
  EXPECT_EQ(rep.failed, 1);
  EXPECT_EQ(rep.completed, 3);
  EXPECT_EQ(rep.instances[1].error, "instance blew up");
  EXPECT_EQ(rep.instances[1].steps_done, 2);  // the throwing step doesn't count
  EXPECT_EQ(ens.error_of(1), "instance blew up");
  for (int i : {0, 2, 3})
    EXPECT_EQ(rep.instances[static_cast<std::size_t>(i)].steps_done, 10);

  // A failed instance stays retired on the next run; siblings advance.
  const auto rep2 = ens.run(5);
  EXPECT_EQ(rep2.failed, 1);
  EXPECT_EQ(rep2.instances[1].steps_done, 0);
  EXPECT_EQ(dynamic_cast<const CountingInstance&>(ens.instance(0)).steps(), 15);
}

// ---- bitwise equivalence (the correctness bar) ------------------------------

TEST(Ensemble, InterleavedSeqExecutionMatchesSoloBitwise) {
  const auto m = mesh::make_tri_periodic(16, 16, 10.0, 10.0);
  const auto sweep = volna::hazard_sweep(4);
  const int steps = 8;

  // Solo references: each scenario alone, plain sequential stepping.
  std::vector<aligned_vector<float>> solo;
  for (const auto& sc : sweep) {
    volna::HazardInstance inst(m, sc, seq_cfg());
    for (int s = 0; s < steps; ++s) inst.step();
    solo.push_back(inst.state());
  }

  // Ensemble: 4 instances over 4 workers, batch 1 = maximal interleaving.
  EnsembleOptions opts;
  opts.name = "bitwise_ens";
  opts.workers = 4;
  opts.batch_steps = 1;
  Ensemble ens(opts);
  ens.add_instances(4, volna::hazard_factory(m, sweep, seq_cfg()));
  const auto rep = ens.run(steps);
  ASSERT_EQ(rep.completed, 4);

  for (int i = 0; i < 4; ++i) {
    auto& inst = dynamic_cast<volna::HazardInstance&>(ens.instance(i));
    EXPECT_TRUE(bitwise_equal(inst.state(), solo[static_cast<std::size_t>(i)]))
        << "instance " << i << " diverged from its solo run";
  }
}

TEST(Ensemble, DegenerateSingleInstanceMatchesPlainDriver) {
  const auto m = mesh::make_tri_periodic(12, 12, 10.0, 10.0);
  const volna::Scenario sc{1.0, 0.3, 0.06};
  const int steps = 6;

  LocalCtx ctx(seq_cfg());
  volna::Volna<float, LocalCtx> plain(ctx, m, sc.depth, sc.amp, sc.width);
  plain.run(steps);

  EnsembleOptions opts;
  opts.name = "solo_ens";
  opts.workers = 2;
  Ensemble ens(opts);
  ens.add_instances(1, volna::hazard_factory(m, {sc}, seq_cfg()));
  const auto rep = ens.run(steps);
  EXPECT_EQ(rep.completed, 1);

  auto& inst = dynamic_cast<volna::HazardInstance&>(ens.instance(0));
  EXPECT_TRUE(bitwise_equal(inst.state(), plain.fetch_state()));
}

// ---- stats isolation --------------------------------------------------------

TEST(Ensemble, PerInstanceStatsRowsAreIsolated) {
  const auto m = mesh::make_tri_periodic(8, 8, 10.0, 10.0);
  const auto sweep = volna::hazard_sweep(2);
  const int steps = 3;

  auto& reg = StatsRegistry::instance();
  reg.clear();  // the rows are process-wide: start from zero on a repeated run
  EnsembleOptions opts;
  opts.name = "stats_ens";
  opts.workers = 2;
  Ensemble ens(opts);
  ens.add_instances(2, volna::hazard_factory(m, sweep, seq_cfg()));
  ens.run(steps);

  // Each instance records its own scoped rows; sim_1 runs once per step.
  const LoopRecord r0 = reg.get("stats_ens/i000/sim_1");
  const LoopRecord r1 = reg.get("stats_ens/i001/sim_1");
  EXPECT_EQ(r0.calls, steps);
  EXPECT_EQ(r1.calls, steps);

  // The ensemble summary record aggregates the run.
  const EnsembleRecord er = reg.get_ensemble("stats_ens");
  EXPECT_EQ(er.runs, 1);
  EXPECT_EQ(er.steps, 2 * steps);
  EXPECT_EQ(er.instances, 2);
  EXPECT_EQ(er.workers, 2);
  EXPECT_GE(er.busy_seconds, 0.0);
}

// ---- cross-instance plan sharing --------------------------------------------

TEST(Ensemble, SameMeshInstancesShareOnePlanBuild) {
  const auto m = mesh::make_tri_periodic(10, 10, 10.0, 10.0);
  const auto sweep = volna::hazard_sweep(2);

  // OpenMP needs coloring plans for the two space_disc call sites (the
  // loops with indirect increments); both share one conflict signature, so
  // TWO instances x two handles = exactly ONE build and three cache hits.
  ExecConfig cfg;
  cfg.backend = Backend::OpenMP;
  cfg.nthreads = 1;
  cfg.block_size = 256;

  PlanCache::instance().clear();
  PlanCache::instance().reset_counters();

  EnsembleOptions opts;
  opts.name = "plan_ens";
  opts.workers = 2;
  Ensemble ens(opts);
  ens.add_instances(2, volna::hazard_factory(m, sweep, cfg));
  const auto rep = ens.run(2);
  ASSERT_EQ(rep.completed, 2);

  const auto c = PlanCache::instance().counters();
  EXPECT_EQ(c.misses, 1u) << "same-mesh instances must share one plan build";
  EXPECT_EQ(c.hits, 3u);
  EXPECT_EQ(PlanCache::instance().size(), 1u);
  EXPECT_EQ(rep.plan_misses, 1);
  EXPECT_EQ(rep.plan_hits, 3);
}

TEST(Ensemble, DistinctMeshInstancesBuildDistinctPlans) {
  const auto sweep = volna::hazard_sweep(1);
  ExecConfig cfg;
  cfg.backend = Backend::OpenMP;
  cfg.nthreads = 1;
  cfg.block_size = 256;

  PlanCache::instance().clear();
  PlanCache::instance().reset_counters();

  EnsembleOptions opts;
  opts.name = "mixed_ens";
  opts.workers = 2;
  Ensemble ens(opts);
  for (int i = 0; i < 2; ++i) {
    const auto mi = mesh::make_tri_periodic(8 + 4 * static_cast<idx_t>(i),
                                            8 + 4 * static_cast<idx_t>(i), 10.0, 10.0);
    ens.add_instance(volna::hazard_factory(mi, sweep, cfg));
  }
  const auto rep = ens.run(2);
  ASSERT_EQ(rep.completed, 2);

  const auto c = PlanCache::instance().counters();
  EXPECT_EQ(c.misses, 2u) << "different meshes cannot share a plan";
  EXPECT_EQ(PlanCache::instance().size(), 2u);
}
