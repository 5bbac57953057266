// Ablation: ensemble serving (opv::serve::Ensemble, serve/ensemble.hpp) —
// N concurrent simulation instances multiplexed over one worker pool vs
// the same N run to completion one after another.
//
// The serving regime the ROADMAP targets: probabilistic hazard sweeps run
// MANY small-mesh Volna scenarios, and no single instance can fill the
// machine — the ensemble interleaves instance timesteps over the pool, so
// throughput (instances/sec) scales with cores while each instance still
// executes its steps strictly in order. Two mesh regimes:
//
//   shared   every instance is built from ONE mesh: all instances produce
//            identical content keys in the PlanCache, so N instances pay
//            for one coloring-plan build (reported as plan builds/hits);
//   mixed    every instance gets its own mesh resolution: the per-instance
//            -plans regime (builds == N).
//
// Instances step on the Seq backend (one worker thread each; parallelism
// comes from instance-level concurrency), so a BITWISE equivalence gate
// runs per instance against its solo execution and the bench exits
// non-zero on any divergence. The headline is the concurrent/sequential
// speedup at each N — it needs multiple cores to show; on a single-core
// host both arms serialize and the ratio sits near 1.0 (the JSON records
// `workers` and `cores` so readers can tell). --min-speedup=X turns the
// N=16 shared-mesh speedup into a hard gate for multi-core CI.
//
//   ./ablation_ensemble [--small|--large] [--n=N] [--steps=N] [--threads=N]
//                       [--batch=N] [--json=FILE] [--min-speedup=X]

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/volna/hazard.hpp"
#include "bench_common.hpp"
#include "core/plan.hpp"
#include "serve/ensemble.hpp"

using namespace opv;
using namespace opv::bench;

namespace {

struct Row {
  std::string mode;  ///< "shared" or "mixed"
  int n = 0;         ///< ensemble size
  double sequential = 0.0, concurrent = 0.0;
  double occupancy = 0.0;
  long long plan_builds = 0, plan_hits = 0;
  bool bitwise_ok = true;
  [[nodiscard]] double speedup() const {
    return concurrent > 0.0 ? sequential / concurrent : 0.0;
  }
  [[nodiscard]] double instances_per_sec() const {
    return concurrent > 0.0 ? n / concurrent : 0.0;
  }
};

/// The meshes instance i of an N-instance ensemble uses: one shared mesh,
/// or per-instance resolutions (base, base+6, base+12, ...).
std::vector<mesh::UnstructuredMesh> make_meshes(bool mixed, int n, idx_t base) {
  std::vector<mesh::UnstructuredMesh> out;
  const int distinct = mixed ? n : 1;
  for (int i = 0; i < distinct; ++i) {
    const idx_t ni = base + 6 * static_cast<idx_t>(i);
    out.push_back(mesh::make_tri_periodic(ni, ni, 10.0, 10.0));
  }
  return out;
}

Row run_mode(bool mixed, int n, idx_t base, int steps, int workers, int batch) {
  Row r;
  r.mode = mixed ? "mixed" : "shared";
  r.n = n;

  const auto meshes = make_meshes(mixed, n, base);
  const auto sweep = volna::hazard_sweep(n);
  ExecConfig cfg;
  cfg.backend = Backend::Seq;
  cfg.nthreads = 1;

  // Sequential arm: N solo instances run to completion one after another.
  // Construction (context + handle building) happens outside the timed
  // window in BOTH arms; the measured work is stepping only.
  std::vector<std::unique_ptr<volna::HazardInstance>> solo;
  for (int i = 0; i < n; ++i)
    solo.push_back(std::make_unique<volna::HazardInstance>(
        meshes[static_cast<std::size_t>(mixed ? i : 0)], sweep[static_cast<std::size_t>(i)],
        cfg));
  {
    WallTimer t;
    for (auto& inst : solo)
      for (int s = 0; s < steps; ++s) inst->step();
    r.sequential = t.seconds();
  }

  // Concurrent arm: the same N scenarios as one ensemble over the pool.
  serve::EnsembleOptions opts;
  opts.name = "ablation/" + r.mode + std::to_string(n);
  opts.workers = workers;
  opts.batch_steps = batch;
  serve::Ensemble ens(opts);
  for (int i = 0; i < n; ++i)
    ens.add_instance(volna::hazard_factory(meshes[static_cast<std::size_t>(mixed ? i : 0)],
                                           {sweep[static_cast<std::size_t>(i)]}, cfg));
  const auto rep = ens.run(steps);
  r.concurrent = rep.seconds;
  r.occupancy = rep.occupancy();

  // Bitwise gate: every ensemble instance must match its solo run exactly,
  // regardless of how the scheduler interleaved the steps.
  for (int i = 0; i < n; ++i) {
    const auto a = dynamic_cast<volna::HazardInstance&>(ens.instance(i)).state();
    const auto b = solo[static_cast<std::size_t>(i)]->state();
    if (a.size() != b.size() ||
        std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0)
      r.bitwise_ok = false;
  }
  if (rep.failed > 0) r.bitwise_ok = false;

  // Plan-sharing accounting (untimed): the Seq arms build no coloring
  // plans, so probe the regime with a pinned-block two-thread OpenMP config
  // (a one-thread TwoLevel team takes no plan) — shared mesh => one build
  // for the whole ensemble, mixed => one per mesh.
  {
    ExecConfig pcfg;
    pcfg.backend = Backend::OpenMP;
    pcfg.nthreads = 2;
    pcfg.block_size = 256;
    PlanCache::instance().clear();
    PlanCache::instance().reset_counters();
    serve::EnsembleOptions popts;
    popts.name = "ablation/plan_" + r.mode + std::to_string(n);
    popts.workers = workers;
    serve::Ensemble pens(popts);
    for (int i = 0; i < n; ++i)
      pens.add_instance(volna::hazard_factory(meshes[static_cast<std::size_t>(mixed ? i : 0)],
                                              {sweep[static_cast<std::size_t>(i)]}, pcfg));
    pens.run(1);
    const auto c = PlanCache::instance().counters();
    r.plan_builds = static_cast<long long>(c.misses);
    r.plan_hits = static_cast<long long>(c.hits);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  idx_t base = 48;  // 4.6k tri cells: the "too small to fill a machine" regime
  if (cli.has("large")) base = 96;
  if (cli.has("small")) base = 24;
  base = static_cast<idx_t>(cli.get_int("n", base));
  const int steps = static_cast<int>(cli.get_int("steps", cli.has("small") ? 8 : 24));
  const int workers = static_cast<int>(cli.get_int("threads", 0));
  const int batch = static_cast<int>(cli.get_int("batch", 2));
  const double min_speedup = std::atof(cli.get("min-speedup", "0").c_str());

  print_header("Ablation: ensemble serving (N concurrent instances vs N sequential runs)",
               "ROADMAP ensemble serving; GALE-style task scheduling over shared meshes");
  const int pool = workers > 0 ? workers : hardware_threads();
  std::printf("volna %d x %d base mesh, %d steps/instance, %d workers (%d cores), batch=%d\n\n",
              static_cast<int>(base), static_cast<int>(base), steps, pool,
              hardware_threads(), batch);

  std::vector<Row> rows;
  for (const bool mixed : {false, true})
    for (const int n : {1, 4, 16})
      rows.push_back(run_mode(mixed, n, base, steps, workers, batch));

  perf::Table t({"mode", "N", "sequential (s)", "concurrent (s)", "speedup", "inst/s",
                 "occupancy", "plan builds", "plan hits", "bitwise"});
  bool diverged = false;
  for (const Row& r : rows) {
    if (!r.bitwise_ok) diverged = true;
    t.add_row({r.mode, std::to_string(r.n), perf::Table::num(r.sequential, 3),
               perf::Table::num(r.concurrent, 3), perf::Table::num(r.speedup(), 2) + "x",
               perf::Table::num(r.instances_per_sec(), 2), perf::Table::pct(r.occupancy, 1),
               std::to_string(r.plan_builds), std::to_string(r.plan_hits),
               r.bitwise_ok ? "ok" : "DIVERGED"});
  }
  t.print();

  std::printf("\nShape check: shared-mesh plan builds stay at 1 for every N (content-keyed\n"
              "PlanCache sharing); mixed-mesh builds equal N. The speedup column needs\n"
              "multiple cores — instance steps are serial, so concurrency across instances\n"
              "is the only parallelism in this bench.\n");

  const std::string json = cli.get("json", "");
  if (!json.empty()) {
    FILE* f = std::fopen(json.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"ablation_ensemble\",\n");
    std::fprintf(f, "  \"base_mesh_n\": %d,\n  \"steps\": %d,\n", static_cast<int>(base),
                 steps);
    std::fprintf(f, "  \"workers\": %d,\n  \"cores\": %d,\n  \"batch\": %d,\n  \"rows\": [\n",
                 pool, hardware_threads(), batch);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "    {\"mode\": \"%s\", \"instances\": %d, \"sequential_s\": %.6f, "
                   "\"concurrent_s\": %.6f, \"speedup\": %.4f, \"instances_per_sec\": %.4f, "
                   "\"occupancy\": %.4f, \"plan_builds\": %lld, \"plan_hits\": %lld, "
                   "\"bitwise_equal\": %s}%s\n",
                   r.mode.c_str(), r.n, r.sequential, r.concurrent, r.speedup(),
                   r.instances_per_sec(), r.occupancy, r.plan_builds, r.plan_hits,
                   r.bitwise_ok ? "true" : "false", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json.c_str());
  }

  if (diverged) {
    std::fprintf(stderr, "FAIL: an ensemble instance diverged from its solo execution\n");
    return 1;
  }
  if (min_speedup > 0.0) {
    for (const Row& r : rows)
      if (r.mode == "shared" && r.n == 16 && r.speedup() < min_speedup) {
        std::fprintf(stderr, "FAIL: shared N=16 speedup %.2fx below the %.2fx gate\n",
                     r.speedup(), min_speedup);
        return 1;
      }
  }
  return 0;
}
