// airfoil_vec: the paper's primary app on its headline path. Double
// precision, 600x300 O-mesh (180,000 cells), renumbered, Simd backend with
// the Simd layout default, 4 OpenMP threads, loop-by-loop handles.
#include <memory>

#include "apps/airfoil/airfoil.hpp"
#include "core/context.hpp"
#include "mesh/generators.hpp"
#include "workloads.hpp"

namespace stepbench {
namespace {

using App = opv::airfoil::Airfoil<double, opv::LocalCtx>;

constexpr opv::idx_t kNi = 600;
constexpr opv::idx_t kNj = 300;
constexpr int kThreads = 4;
constexpr int kReplaySteps = 5;

struct System {
  opv::mesh::UnstructuredMesh mesh;
  std::unique_ptr<opv::LocalCtx> ctx;
  std::unique_ptr<App> app;

  void step() { app->run(1); }
  [[nodiscard]] double cells() const { return static_cast<double>(app->ncells()); }
  void set_stats(bool on) { ctx->config().collect_stats = on; }
  void reset_counts() {}
};

std::unique_ptr<System> build(std::uint64_t seed, bool stats, Tracer& tr, SetupTimes& t) {
  auto s = std::make_unique<System>();
  ScopedSpan setup(tr, "setup");
  {
    ScopedSpan sp(tr, "mesh.build");
    s->mesh = opv::mesh::make_airfoil_omesh(kNi, kNj);
    t.mesh = sp.stop();
  }
  // The seed picks the edge order the renumbering pass starts from.
  opv::mesh::shuffle_edges(s->mesh, seed);
  {
    ScopedSpan sp(tr, "context.build");
    opv::ExecConfig cfg;
    cfg.backend = opv::Backend::Simd;
    cfg.nthreads = kThreads;
    cfg.collect_stats = stats;
    s->ctx = std::make_unique<opv::LocalCtx>(cfg);
    s->ctx->set_renumber(true);
    s->ctx->set_default_layout(opv::default_layout(opv::Backend::Simd));
    s->app = std::make_unique<App>(*s->ctx, s->mesh);
    t.context = sp.stop();
  }
  {
    ScopedSpan sp(tr, "step", 0);
    s->app->run(1);
  }
  t.total = setup.stop();
  read_plan_counters(t);
  return s;
}

/// Replay the last steps on a Seq context restored from a snapshot of the
/// measured system; the measured system runs the same steps.
void check_against_seq(System& s, Outcome& out) {
  opv::Checkpoint snap;
  s.ctx->snapshot(snap);
  s.app->run(kReplaySteps);
  const auto q = s.app->fetch_q();

  opv::ExecConfig cfg;
  cfg.backend = opv::Backend::Seq;
  cfg.collect_stats = false;
  opv::LocalCtx seq_ctx(cfg);
  App seq(seq_ctx, s.mesh);
  seq_ctx.restore(snap);
  seq.run(kReplaySteps);
  const auto q_seq = seq.fetch_q();
  out.attempted += 2 * kReplaySteps;

  const double err = relative_l2(q, q_seq);
  out.record["check.seq_rel_l2"] = err;
  out.check(err < kFieldTolerance,
            "airfoil Simd vs Seq over " + std::to_string(kReplaySteps) +
                " replayed steps: relative L2 " + sci(err));
  out.check(std::isfinite(s.app->last_rms()), "airfoil residual finite");
}

}  // namespace

Outcome run_airfoil_vec(const Options& o, Tracer& tr) {
  return run_stepped(
      o, tr, kThreads, airfoil_loops(), sizeof(double),
      [&](SetupTimes& t) { return build(o.seed, o.trace, tr, t); },
      [](System&, double, Metrics&) {}, check_against_seq);
}

}  // namespace stepbench
