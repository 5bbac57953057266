// Ablation: inlined template dispatch vs indirect (function-pointer) kernel
// calls. The paper (section 5) found that OP2's original generic
// op_par_loop, which called the user kernel through a function pointer,
// blocked compiler optimization; the generated specialized stubs (our
// template instantiation) fixed it. This bench measures that gap on the
// res_calc-like kernel.

#include <benchmark/benchmark.h>

#include <functional>

#include "core/context.hpp"
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

/// Type-erased kernel: the "generic op_par_loop with a function pointer"
/// the paper's section 5 replaced with generated stubs.
struct ErasedKernel {
  std::function<void(const double*, const double*, const double*, double*, double*)> fn;
  void operator()(const double* a, const double* b, const double* c, double* d,
                  double* e) const {
    fn(a, b, c, d, e);
  }
};

struct Fixture {
  mesh::UnstructuredMesh m = mesh::make_quad_box(512, 512);
  Set cells{"cells", m.ncells};
  Set edges{"edges", m.nedges};
  Map e2c{"e2c", edges, cells, 2, m.edge_cells};
  FixedDat<double, 1> q{"q", cells};
  FixedDat<double, 1> r{"r", cells};
  FixedDat<double, 1> w{"w", edges};
  Fixture() {
    for (idx_t c = 0; c < m.ncells; ++c) q.at(c) = 1.0 + (c % 13) * 0.01;
    w.fill(0.3);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_dispatch_inlined(benchmark::State& state) {
  auto& f = fixture();
  const ExecConfig cfg{.backend = Backend::OpenMP, .collect_stats = false};
  for (auto _ : state) {
    par_loop(EdgeKernel{}, "inlined", f.edges, cfg, arg<opv::READ>(f.q, 0, f.e2c),
             arg<opv::READ>(f.q, 1, f.e2c), arg<opv::READ>(f.w),
             arg<opv::INC>(f.r, 0, f.e2c), arg<opv::INC>(f.r, 1, f.e2c));
  }
  state.SetItemsProcessed(state.iterations() * f.m.nedges);
}

void BM_dispatch_fnptr(benchmark::State& state) {
  auto& f = fixture();
  const ExecConfig cfg{.backend = Backend::OpenMP, .collect_stats = false};
  ErasedKernel k{EdgeKernel{}};
  for (auto _ : state) {
    par_loop(k, "fnptr", f.edges, cfg, arg<opv::READ>(f.q, 0, f.e2c),
             arg<opv::READ>(f.q, 1, f.e2c), arg<opv::READ>(f.w),
             arg<opv::INC>(f.r, 0, f.e2c), arg<opv::INC>(f.r, 1, f.e2c));
  }
  state.SetItemsProcessed(state.iterations() * f.m.nedges);
}

void BM_dispatch_inlined_simd(benchmark::State& state) {
  auto& f = fixture();
  const ExecConfig cfg{.backend = Backend::Simd, .collect_stats = false};
  for (auto _ : state) {
    par_loop(EdgeKernel{}, "inlined_simd", f.edges, cfg, arg<opv::READ>(f.q, 0, f.e2c),
             arg<opv::READ>(f.q, 1, f.e2c), arg<opv::READ>(f.w),
             arg<opv::INC>(f.r, 0, f.e2c), arg<opv::INC>(f.r, 1, f.e2c));
  }
  state.SetItemsProcessed(state.iterations() * f.m.nedges);
}

/// The reusable Loop handle: conflict analysis, plan lookup and stats
/// binding amortized to zero per call — the steady-state dispatch path.
void BM_dispatch_loop_handle(benchmark::State& state) {
  auto& f = fixture();
  const ExecConfig cfg{.backend = Backend::Simd, .collect_stats = false};
  Loop loop(EdgeKernel{}, std::string("loop_handle_simd"), f.edges,
            arg<opv::READ>(f.q, 0, f.e2c), arg<opv::READ>(f.q, 1, f.e2c),
            arg<opv::READ>(f.w), arg<opv::INC>(f.r, 0, f.e2c), arg<opv::INC>(f.r, 1, f.e2c));
  for (auto _ : state) loop.run(cfg);
  state.SetItemsProcessed(state.iterations() * f.m.nedges);
}

BENCHMARK(BM_dispatch_inlined)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_dispatch_fnptr)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_dispatch_inlined_simd)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_dispatch_loop_handle)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
