// Ablation: generated-stub-style code vs the runtime engine, on res_calc.
//
// OP2 is a *code generator*: every parallel loop gets a specialized stub
// with literal constants, fixed arities and no per-argument control flow
// (paper section 5). opvec's engine reaches the same specialization via
// templates: every descriptor carries its arity at compile time (here from
// FixedDat arguments), just as the stubs carry literal arities. This bench
// quantifies the remaining abstraction gap on the paper's hottest kernel
// by comparing, single-threaded:
//   1. a hand-written scalar loop   (what OP2's MPI stub compiles to)
//   2. a hand-written Fig-3b vector loop (what OP2's AVX stub compiles to)
//   3. the engine's Seq backend
//   4. the engine's Simd backend (W=4, serialized scatters)
// The (2)/(1) ratio is the machine's true vectorization headroom for
// res_calc; (3)/(1) and (4)/(2) are the abstraction cost of the engine.

#include <functional>

#include "bench_common.hpp"

using namespace opv;
using namespace opv::bench;
namespace simd = opv::simd;

namespace {

double time_reps(int reps, const std::function<void()>& fn) {
  fn();  // warmup
  WallTimer t;
  for (int r = 0; r < reps; ++r) fn();
  return t.seconds() / reps;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  print_header("Ablation: generated-stub-style code vs the runtime engine (res_calc)",
               "Reguly et al., section 5 (specialized stubs) + Table VII");

  auto m = mesh::make_airfoil_omesh(
      static_cast<idx_t>(cli.get_int("ni", 1200)), static_cast<idx_t>(cli.get_int("nj", 600)));
  const int reps = static_cast<int>(cli.get_int("iters", 8));
  const idx_t ne = m.nedges, nc = m.ncells, nn = m.nnodes;

  aligned_vector<double> x(static_cast<std::size_t>(nn) * 2);
  aligned_vector<double> q(static_cast<std::size_t>(nc) * 4), res(static_cast<std::size_t>(nc) * 4, 0.0);
  aligned_vector<double> adtv(static_cast<std::size_t>(nc), 1.0);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = m.node_xy[i];
  const auto consts = airfoil::Consts<double>::standard();
  for (idx_t c = 0; c < nc; ++c)
    for (int k = 0; k < 4; ++k) q[static_cast<std::size_t>(c) * 4 + k] = consts.qinf[k];
  const idx_t* en = m.edge_nodes.data();
  const idx_t* ec = m.edge_cells.data();
  airfoil::ResCalc<double> K{consts};

  // 1. hand-written scalar stub.
  const double t_scalar = time_reps(reps, [&] {
    for (idx_t e = 0; e < ne; ++e)
      K(&x[2 * static_cast<std::size_t>(en[2 * e])], &x[2 * static_cast<std::size_t>(en[2 * e + 1])],
        &q[4 * static_cast<std::size_t>(ec[2 * e])], &q[4 * static_cast<std::size_t>(ec[2 * e + 1])],
        &adtv[ec[2 * e]], &adtv[ec[2 * e + 1]], &res[4 * static_cast<std::size_t>(ec[2 * e])],
        &res[4 * static_cast<std::size_t>(ec[2 * e + 1])]);
  });

  // 2. hand-written Fig-3b vector stub (W=4, serialized scatter).
  constexpr int W = 4;
  using V = simd::Vec<double, W>;
  using IV = simd::Vec<std::int32_t, W>;
  const double t_vector = time_reps(reps, [&] {
    idx_t e = 0;
    for (; e + W <= ne; e += W) {
      const IV n0 = IV::strided(en + 2 * e, 2) * IV(2);
      const IV n1 = IV::strided(en + 2 * e + 1, 2) * IV(2);
      const IV c0 = IV::strided(ec + 2 * e, 2);
      const IV c1 = IV::strided(ec + 2 * e + 1, 2);
      const IV c0q = c0 * IV(4), c1q = c1 * IV(4);
      V x1[2] = {V::gather(x.data(), n0), V::gather(x.data() + 1, n0)};
      V x2[2] = {V::gather(x.data(), n1), V::gather(x.data() + 1, n1)};
      V q1[4], q2[4];
      for (int k = 0; k < 4; ++k) {
        q1[k] = V::gather(q.data() + k, c0q);
        q2[k] = V::gather(q.data() + k, c1q);
      }
      V a1 = V::gather(adtv.data(), c0), a2 = V::gather(adtv.data(), c1);
      V r1[4] = {}, r2[4] = {};
      K(x1, x2, q1, q2, &a1, &a2, r1, r2);
      for (int k = 0; k < 4; ++k) {
        simd::scatter_add_serial(res.data() + k, c0q, r1[k]);
        simd::scatter_add_serial(res.data() + k, c1q, r2[k]);
      }
    }
    for (; e < ne; ++e)
      K(&x[2 * static_cast<std::size_t>(en[2 * e])], &x[2 * static_cast<std::size_t>(en[2 * e + 1])],
        &q[4 * static_cast<std::size_t>(ec[2 * e])], &q[4 * static_cast<std::size_t>(ec[2 * e + 1])],
        &adtv[ec[2 * e]], &adtv[ec[2 * e + 1]], &res[4 * static_cast<std::size_t>(ec[2 * e])],
        &res[4 * static_cast<std::size_t>(ec[2 * e + 1])]);
  });

  // 3./4. the engine, single-threaded.
  Set nodes("nodes", nn), cells("cells", nc), edges("edges", ne);
  Map pedge("pedge", edges, nodes, 2, m.edge_nodes);
  Map pecell("pecell", edges, cells, 2, m.edge_cells);
  FixedDat<double, 2> xd("x", nodes, x);
  FixedDat<double, 4> qd("q", cells, q), rd("res", cells);
  FixedDat<double, 1> ad("adt", cells, adtv);
  auto engine = [&](Backend b) {
    const ExecConfig cfg{.backend = b, .simd_width = 4, .nthreads = 1, .collect_stats = false};
    // Reusable Loop handle: the engine's steady-state path (plan pinned,
    // conflict analysis done once) — the fair comparison against the
    // hand-written stubs above, which also do no per-sweep setup.
    Loop loop(K, std::string("res_calc_ablation"), edges, arg<opv::READ>(xd, 0, pedge),
              arg<opv::READ>(xd, 1, pedge), arg<opv::READ>(qd, 0, pecell),
              arg<opv::READ>(qd, 1, pecell), arg<opv::READ>(ad, 0, pecell),
              arg<opv::READ>(ad, 1, pecell), arg<opv::INC>(rd, 0, pecell),
              arg<opv::INC>(rd, 1, pecell));
    return time_reps(reps, [&] { loop.run(cfg); });
  };
  const double t_eng_seq = engine(Backend::Seq);
  const double t_eng_simd = engine(Backend::Simd);

  perf::Table t({"variant", "time/sweep (s)", "ns/edge", "vs hand scalar"});
  auto row = [&](const char* name, double secs) {
    t.add_row({name, perf::Table::num(secs, 4), perf::Table::num(secs / ne * 1e9, 1),
               perf::Table::num(t_scalar / secs, 2) + "x"});
  };
  row("hand scalar stub (OP2 MPI codegen)", t_scalar);
  row("hand vector stub (OP2 AVX codegen, Fig. 3b)", t_vector);
  row("engine Seq backend", t_eng_seq);
  row("engine Simd backend (W=4)", t_eng_simd);
  t.print();

  std::printf("\nReadings:\n"
              " * hand-vector / hand-scalar = the machine's true vectorization\n"
              "   headroom for res_calc (the paper saw ~1.3x on Sandy Bridge;\n"
              "   modern cores with far more FLOP/byte see less),\n"
              " * engine / hand = the abstraction cost OP2 eliminates by\n"
              "   generating specialized stubs per loop (paper section 5).\n");
  return 0;
}
