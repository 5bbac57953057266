// tet3d_ranks: the only workload that exercises dist. Double precision,
// Kuhn tet box n=32 (196,608 cells), 3 simulated ranks x 1 thread (one
// core left for the driver thread), Simd per rank, renumbered, default
// Overlap exchange mode over the default MemcpyExchanger.
#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>

#include "apps/tet3d/tet3d.hpp"
#include "common/rng.hpp"
#include "core/context.hpp"
#include "dist/context.hpp"
#include "mesh/generators.hpp"
#include "workloads.hpp"

namespace stepbench {
namespace {

using DistApp = opv::tet3d::Tet3D<double, opv::dist::DistCtx>;
using SeqApp = opv::tet3d::Tet3D<double, opv::LocalCtx>;

constexpr opv::idx_t kBox = 32;
constexpr int kRanks = 3;
constexpr int kReplaySteps = 5;

/// Forwards to the context's transport, timing begin() and wait() as spans
/// and counting completed exchanges and the values they moved, while the
/// tracer is enabled.
class TimedExchanger final : public opv::dist::Exchanger {
 public:
  TimedExchanger(std::unique_ptr<opv::dist::Exchanger> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::int64_t exchange(const opv::dist::Partitioned& part,
                        const opv::dist::DatHaloView& view) override {
    ScopedSpan sp(tracer_, "dist.exchange");
    const std::int64_t n = inner_->exchange(part, view);
    tally(sp.stop(), n);
    return n;
  }

  void begin(const opv::dist::Partitioned& part, const opv::dist::DatHaloView& view) override {
    ScopedSpan sp(tracer_, "dist.begin");
    inner_->begin(part, view);
  }

  std::int64_t wait(const opv::dist::Partitioned& part,
                    const opv::dist::DatHaloView& view) override {
    ScopedSpan sp(tracer_, "dist.wait");
    const std::int64_t n = inner_->wait(part, view);
    tally(sp.stop(), n);
    return n;
  }

  [[nodiscard]] const char* name() const override { return inner_->name(); }

  void reset_counts() {
    wait_seconds = 0.0;
    values = 0;
    exchanges = 0;
  }

  double wait_seconds = 0.0;  ///< in wait() or a blocking exchange()
  std::int64_t values = 0;
  std::int64_t exchanges = 0;

 private:
  void tally(double seconds, std::int64_t n) {
    if (!tracer_.enabled()) return;
    wait_seconds += seconds;
    values += n;
    ++exchanges;
  }

  std::unique_ptr<opv::dist::Exchanger> inner_;
  Tracer& tracer_;
};

/// The seed picks the interior-face order the renumbering pass starts from.
void shuffle_faces(opv::mesh::TetMesh& m, std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(m.nfaces);
  std::vector<std::size_t> p(n);
  std::iota(p.begin(), p.end(), std::size_t{0});
  opv::Rng rng(seed);
  for (std::size_t i = n - 1; i > 0; --i) std::swap(p[i], p[rng.next_below(i + 1)]);
  opv::aligned_vector<opv::idx_t> nodes(n * 3), cells(n * 2);
  for (std::size_t f = 0; f < n; ++f) {
    std::copy_n(&m.face_nodes[p[f] * 3], 3, &nodes[f * 3]);
    std::copy_n(&m.face_cells[p[f] * 2], 2, &cells[f * 2]);
  }
  m.face_nodes = std::move(nodes);
  m.face_cells = std::move(cells);
}

opv::ExecConfig rank_config(opv::Backend backend, bool stats) {
  opv::ExecConfig cfg;
  cfg.backend = backend;
  cfg.nthreads = 1;
  cfg.collect_stats = stats;
  return cfg;
}

struct System {
  opv::mesh::TetMesh mesh;
  std::unique_ptr<opv::dist::DistCtx> ctx;
  TimedExchanger* exchanger = nullptr;  ///< owned by ctx
  std::unique_ptr<DistApp> app;

  void step() { app->run(1); }
  [[nodiscard]] double cells() const { return static_cast<double>(app->ncells()); }
  void set_stats(bool on) { ctx->config().collect_stats = on; }
  void reset_counts() { exchanger->reset_counts(); }
};

/// Build a renumbered rank-simulated Tet3D; `timed` installs the timing
/// wrapper around the default transport.
void build_app(System& s, opv::Backend backend, bool stats, bool timed, Tracer& tr) {
  s.ctx = std::make_unique<opv::dist::DistCtx>(kRanks, rank_config(backend, stats));
  if (timed) {
    auto ex = std::make_unique<TimedExchanger>(std::make_unique<opv::dist::MemcpyExchanger>(), tr);
    s.exchanger = ex.get();
    s.ctx->set_exchanger(std::move(ex));
  }
  s.ctx->set_renumber(true);
  s.ctx->set_default_layout(opv::default_layout(backend));
  s.app = std::make_unique<DistApp>(*s.ctx, s.mesh);
}

std::unique_ptr<System> build(std::uint64_t seed, bool stats, Tracer& tr, SetupTimes& t) {
  auto s = std::make_unique<System>();
  ScopedSpan setup(tr, "setup");
  {
    ScopedSpan sp(tr, "mesh.build");
    s->mesh = opv::mesh::make_tet_box(kBox, kBox, kBox);
    t.mesh = sp.stop();
  }
  shuffle_faces(s->mesh, seed);
  {
    ScopedSpan sp(tr, "context.build");
    build_app(*s, opv::Backend::Simd, stats, /*timed=*/true, tr);
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

/// Replay the last steps on a Seq LocalCtx started from the measured
/// system's state (u is Tet3D's only state carried between steps: update_u
/// zeroes res and grad); the measured system runs the same steps.
void check_against_seq(System& s, Outcome& out) {
  const auto u0 = s.app->fetch_u();
  s.app->run(kReplaySteps);
  const auto u = s.app->fetch_u();

  opv::LocalCtx seq_ctx(rank_config(opv::Backend::Seq, false));
  SeqApp seq(seq_ctx, s.mesh);
  auto* state = seq.state_dat();
  const bool fits = static_cast<std::size_t>(state->set().size()) == u0.size();
  if (fits)
    for (opv::idx_t c = 0; c < state->set().size(); ++c)
      state->at(c) = u0[static_cast<std::size_t>(c)];
  seq.run(kReplaySteps);
  const auto u_seq = seq.fetch_u();
  out.attempted += 2 * kReplaySteps;

  const double err = fits ? relative_l2(u, u_seq) : 1.0;
  out.record["check.seq_rel_l2"] = err;
  out.check(err < kFieldTolerance, "tet3d 3-rank Simd vs Seq over " +
                                       std::to_string(kReplaySteps) +
                                       " replayed steps: relative L2 " + sci(err));
}

/// The timing wrapper must leave Seq results bitwise-unchanged.
void check_wrapper_bitwise(std::uint64_t seed, Tracer& tr, Outcome& out) {
  constexpr int kSteps = 5;
  auto mesh = opv::mesh::make_tet_box(6, 6, 6);
  shuffle_faces(mesh, seed);
  opv::aligned_vector<double> results[2];
  for (const bool timed : {false, true}) {
    System s;
    s.mesh = mesh;
    build_app(s, opv::Backend::Seq, false, timed, tr);
    s.app->run(kSteps);
    results[timed ? 1 : 0] = s.app->fetch_u();
  }
  out.attempted += 2 * kSteps;
  const bool same = results[0].size() == results[1].size() &&
                    std::memcmp(results[0].data(), results[1].data(),
                                results[0].size() * sizeof(double)) == 0;
  out.check(same, "timed exchanger leaves Seq Tet3D bitwise-unchanged");
}

/// dist counters over the traced window: exchange wall time per the dist
/// loops' own accounting, and max/mean rank seconds summed over loops.
void dist_metrics(System& s, double steps, Metrics& m) {
  const TimedExchanger& ex = *s.exchanger;
  double exch = 0.0, rank_max = 0.0, rank_mean = 0.0;
  for (const auto& [name, rec] : opv::StatsRegistry::instance().all()) {
    if (std::find(tet3d_loops().begin(), tet3d_loops().end(), name) == tet3d_loops().end())
      continue;
    exch += rec.exchange_seconds;
    rank_max += rec.rank_max_seconds;
    rank_mean += rec.rank_mean_seconds;
  }
  m["dist.exchange_ms"] = 1e3 * exch / steps;
  m["dist.wait_ms"] = 1e3 * ex.wait_seconds / steps;
  m["dist.values"] = static_cast<double>(ex.values) / steps;
  m["dist.exchanges"] = static_cast<double>(ex.exchanges) / steps;
  m["dist.rank_imbalance"] = rank_mean > 0.0 ? rank_max / rank_mean : 0.0;
}

}  // namespace

Outcome run_tet3d_ranks(const Options& o, Tracer& tr) {
  // The rank pool parks its threads between the dozen parallel phases of a
  // step; pollers keep their vCPUs from halting (see IdlePollers).
  const IdlePollers pollers(usable_cpus());
  Outcome out = run_stepped(
      o, tr, kRanks, tet3d_loops(), sizeof(double),
      [&](SetupTimes& t) { return build(o.seed, o.trace, tr, t); }, dist_metrics,
      [&](System& s, Outcome& out) {
        check_against_seq(s, out);
        check_wrapper_bitwise(o.seed, tr, out);
      });
  out.record["host.idle_pollers"] = pollers.running();
  return out;
}

}  // namespace stepbench
