// Ablation: per-call dispatch overhead of the distributed layer across rank
// counts. The one-shot DistCtx::loop re-derives the halo-exchange set,
// re-preps per-rank argument bindings and rebuilds one engine handle per
// rank on EVERY call; a persistent dist::Loop pins all of it at
// construction, so steady-state run() only refreshes dirty halos and wakes
// the rank pool. The paper's execution model (plans amortized over
// thousands of timesteps, section 3) is the handle path; this bench
// measures what the one-shot path pays on top. Mirrors
// bench/ablation_dispatch.cpp for the single-process engine.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "apps/airfoil/airfoil.hpp"
#include "dist/context.hpp"
#include "mesh/generators.hpp"

namespace {

using namespace opv;

struct EdgeKernel {
  template <class T>
  void operator()(const T* ql, const T* qr, const T* w, T* rl, T* rr) const {
    OPV_SIMD_MATH_USING;
    const T f = w[0] * sqrt(abs(qr[0] - ql[0])) + w[0] * (qr[0] * ql[0]);
    rl[0] += f;
    rr[0] -= f;
  }
};

/// A small mesh on purpose: per-call setup cost is amortized over few
/// elements, so the dispatch-path difference is visible.
struct Fixture {
  mesh::UnstructuredMesh m = mesh::make_quad_box(128, 128);
  dist::DistCtx ctx;
  dist::DistCtx::SetHandle cells, edges;
  dist::DistCtx::MapHandle e2c;
  dist::DistCtx::FixedDatHandle<double, 1> q, r, w;

  explicit Fixture(int nranks)
      : ctx(nranks, ExecConfig{.backend = Backend::OpenMP, .nthreads = 1,
                               .collect_stats = false}) {
    cells = ctx.decl_set("cells", m.ncells);
    edges = ctx.decl_set("edges", m.nedges);
    const auto cent = airfoil::cell_centroids(m);
    ctx.set_partition_coords(cells, cent.data());
    e2c = ctx.decl_map("e2c", edges, cells, 2, m.edge_cells);
    aligned_vector<double> qi(m.ncells);
    for (idx_t c = 0; c < m.ncells; ++c) qi[c] = 1.0 + (c % 13) * 0.01;
    q = ctx.decl_dat<double, 1>("q", cells, qi);
    r = ctx.decl_dat<double, 1>("r", cells);
    w = ctx.decl_dat<double, 1>("w", edges, aligned_vector<double>(m.nedges, 0.3));
    ctx.finalize();
  }
};

Fixture& fixture(int nranks) {
  static std::map<int, std::unique_ptr<Fixture>> cache;
  auto& f = cache[nranks];
  if (!f) f = std::make_unique<Fixture>(nranks);
  return *f;
}

/// One-shot path: exchange-set derivation + per-rank arg prep + per-rank
/// handle construction on every call.
void BM_dist_oneshot(benchmark::State& state) {
  auto& f = fixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    f.ctx.loop(EdgeKernel{}, "dist_oneshot", f.edges, f.ctx.arg<opv::READ>(f.q, 0, f.e2c),
               f.ctx.arg<opv::READ>(f.q, 1, f.e2c), f.ctx.arg<opv::READ>(f.w),
               f.ctx.arg<opv::INC>(f.r, 0, f.e2c), f.ctx.arg<opv::INC>(f.r, 1, f.e2c));
  }
  state.SetItemsProcessed(state.iterations() * f.m.nedges);
}

/// Handle path: everything pinned at construction; run() does zero setup.
void BM_dist_loop_handle(benchmark::State& state) {
  auto& f = fixture(static_cast<int>(state.range(0)));
  dist::Loop loop(f.ctx, EdgeKernel{}, "dist_handle", f.edges,
                  f.ctx.arg<opv::READ>(f.q, 0, f.e2c), f.ctx.arg<opv::READ>(f.q, 1, f.e2c),
                  f.ctx.arg<opv::READ>(f.w), f.ctx.arg<opv::INC>(f.r, 0, f.e2c),
                  f.ctx.arg<opv::INC>(f.r, 1, f.e2c));
  for (auto _ : state) loop.run();
  state.SetItemsProcessed(state.iterations() * f.m.nedges);
}

BENCHMARK(BM_dist_oneshot)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_dist_loop_handle)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
