// Quickstart: the complete opvec workflow on a small mesh — the example
// that corresponds to the paper's Figure 2a.
//
//   1. build (or load) an unstructured mesh,
//   2. declare sets, maps and datasets,
//   3. write a width-generic kernel,
//   4. run it under different backends and compare.
//
// Build & run:  ./quickstart [--n=256] [--iters=100]
//
// Exits non-zero when a backend's final max|change| differs from Seq's by
// more than 1e-9 relative — the cross-backend equivalence this example shows.

#include <cmath>
#include <cstdio>

#include "common/cli.hpp"
#include "core/context.hpp"
#include "mesh/generators.hpp"

namespace {

// A weighted-Laplacian-style edge kernel: reads the two endpoint values,
// increments both cells — the canonical indirect-increment pattern that
// needs coloring (compare the paper's Figure 1b).
struct Smooth {
  template <class T>
  void operator()(const T* ql, const T* qr, const T* w, T* rl, T* rr) const {
    OPV_SIMD_MATH_USING;
    const T f = w[0] * (qr[0] - ql[0]);
    rl[0] += f;
    rr[0] -= f;
  }
};

// Direct update with a branch written as select() — the paper's restriction
// for vectorizable kernels.
struct Apply {
  template <class T>
  void operator()(T* q, const T* r, T* maxchange) const {
    OPV_SIMD_MATH_USING;
    const T d = select(abs(r[0]) < T(1.0), r[0], T(0.0));
    q[0] = q[0] + T(0.2) * d;
    maxchange[0] = max(maxchange[0], abs(d));
  }
};

}  // namespace

int main(int argc, char** argv) {
  const opv::Cli cli(argc, argv);
  const auto n = static_cast<opv::idx_t>(cli.get_int("n", 256));
  const int iters = static_cast<int>(cli.get_int("iters", 100));

  // 1. A synthetic unstructured mesh (quad box stored as sets + maps).
  auto m = opv::mesh::make_quad_box(n, n);
  m.validate();
  std::printf("mesh: %d cells, %d edges, %d nodes\n", m.ncells, m.nedges, m.nnodes);

  double ref = 0.0;  // Seq's final max|change|, from the first run
  int failed = 0;
  auto run = [&](opv::ExecConfig cfg, const char* label) {
    // 2. Declare the mesh through an execution context.
    opv::LocalCtx ctx(cfg);
    auto cells = ctx.decl_set("cells", m.ncells);
    auto edges = ctx.decl_set("edges", m.nedges);
    auto e2c = ctx.decl_map("e2c", edges, cells, 2, m.edge_cells);

    opv::aligned_vector<double> init(m.ncells, 0.0);
    for (opv::idx_t c = 0; c < m.ncells; ++c) init[c] = (c % 17) * 0.1;
    auto q = ctx.decl_dat<double, 1>("q", cells, init);
    auto r = ctx.decl_dat<double, 1>("r", cells);
    auto w = ctx.decl_dat<double, 1>("w", edges, opv::aligned_vector<double>(m.nedges, 0.25));

    // 3./4. Run the loops; coloring and vectorization are the runtime's job.
    // Each loop is a reusable handle: the first make_loop closes the
    // declarations (ctx.finalize()), conflict analysis happens once here,
    // the coloring plan and stats slot are pinned on the first run(), and
    // the steady-state iterations below do zero per-call setup. The access
    // mode is a template parameter and the arity comes from each dat's
    // declared type (decl_dat<double, 1>), so the engine's gather/scatter
    // code is specialized — and fully unrolled per component — for each
    // argument at compile time.
    double change = 0.0;
    auto smooth = ctx.make_loop(Smooth{}, "smooth", edges, ctx.arg<opv::READ>(q, 0, e2c),
                                ctx.arg<opv::READ>(q, 1, e2c), ctx.arg<opv::READ>(w),
                                ctx.arg<opv::INC>(r, 0, e2c), ctx.arg<opv::INC>(r, 1, e2c));
    auto apply = ctx.make_loop(Apply{}, "apply", cells, ctx.arg<opv::RW>(q),
                               ctx.arg<opv::READ>(r), ctx.arg_gbl<opv::MAX>(&change, 1));
    auto clear = ctx.make_loop([](auto* rr) { rr[0] = std::decay_t<decltype(rr[0])>(0.0); },
                               "clear", cells, ctx.arg<opv::WRITE>(r));
    opv::WallTimer t;
    for (int it = 0; it < iters; ++it) {
      smooth.run();
      change = 0.0;
      apply.run();
      clear.run();
    }
    std::printf("%-28s %8.3f ms   final max|change| = %.6e\n", label, t.seconds() * 1e3,
                change);
    if (cfg.backend == opv::Backend::Seq) {
      ref = change;
    } else if (std::abs(change - ref) > 1e-9 * std::abs(ref)) {
      std::printf("FAIL: %s differs from Seq (%.17g vs %.17g)\n", label, change, ref);
      ++failed;
    }
  };

  using opv::Backend;
  run({.backend = Backend::Seq}, "Seq (reference)");
  run({.backend = Backend::OpenMP}, "OpenMP (colored blocks)");
  run({.backend = Backend::AutoVec}, "AutoVec (pragma simd)");
  run({.backend = Backend::Simd}, "Simd (vector intrinsics)");
  run({.backend = Backend::Simd, .coloring = opv::ColoringStrategy::BlockPermute},
      "Simd + block permute");
  run({.backend = Backend::Simt}, "Simt (OpenCL model)");
  return failed == 0 ? 0 : 1;
}
