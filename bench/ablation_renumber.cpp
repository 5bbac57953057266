// Ablation: the context-level renumbering pass (core/reorder.hpp) vs the
// locality it is supposed to recover.
//
// bench/ablation_locality shows WHAT ordering is worth (mesh-level utilities
// applied by hand); this bench shows the RUNTIME DELIVERING it: the same
// res_calc workload on a shuffled-edge mesh, with and without
// ctx.set_renumber(true), against the generator-order ceiling. The headline
// number is the recovered fraction
//
//     (t_shuffled - t_renumbered) / (t_shuffled - t_generator)
//
// per backend and rank count (sections 6.2/6.4 attribute the gap to the
// caching behavior of the indirect gathers). Plan color counts are reported
// for the shuffled vs renumbered edge->cell conflicts, and a fast
// sequential equivalence check (renumber on vs off within floating-point
// reassociation tolerance) makes the bench usable as a functional smoke:
// it exits non-zero on divergence.
//
//   ./ablation_renumber [--small|--large] [--iters=N] [--threads=N]
//                       [--ranks=N] [--json=FILE] [--no-dist]

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/stats.hpp"

using namespace opv;
using namespace opv::bench;

namespace {

double res_calc_secs(const std::vector<KernelRow>& rows) {
  for (const auto& r : rows)
    if (r.name == "res_calc") return r.seconds;
  return 0.0;
}

/// Coloring footprint of the res_calc conflicts (edge->cell, both slots) on
/// a mesh ordering: declare the edge/cell universe into a LocalCtx
/// (optionally renumbered through the context pass) and build the plans the
/// engine would use.
struct PlanColors {
  int block_colors = 0;
  int elem_colors = 0;
  int global_colors = 0;
};

PlanColors plan_colors(const mesh::UnstructuredMesh& m, bool renumber) {
  LocalCtx ctx;
  auto cells = ctx.decl_set("cells", m.ncells);
  auto edges = ctx.decl_set("edges", m.nedges);
  auto pecell = ctx.decl_map("pecell", edges, cells, 2, m.edge_cells);
  ctx.set_partition_coords(cells, nullptr);  // the primary set; LocalCtx ignores coordinates
  ctx.set_renumber(renumber);
  ctx.finalize();
  const std::vector<IncRef> conflicts = {{pecell, 0}, {pecell, 1}};
  const auto two =
      build_plan(m.nedges, conflicts, ExecConfig::kDefaultBlockSize, ColoringStrategy::TwoLevel);
  const auto full = build_plan(m.nedges, conflicts, ExecConfig::kDefaultBlockSize,
                               ColoringStrategy::FullPermute);
  return {two->nblock_colors, two->max_elem_colors, full->nglobal_colors};
}

/// Functional smoke: renumber on vs off on a small shuffled mesh must agree
/// within floating-point reassociation tolerance (reordering an
/// indirect-increment loop reassociates the per-cell sums, so bitwise
/// equality is the wrong bar here — tests/test_reorder.cpp pins the bitwise
/// manual-relayout contract).
bool equivalence_ok() {
  auto m = mesh::make_airfoil_omesh(96, 32);
  mesh::shuffle_edges(m, 7);
  const ExecConfig cfg{.backend = Backend::Seq};

  LocalCtx off(cfg);
  airfoil::Airfoil<double, LocalCtx> a(off, m);
  a.run(2, 0);
  const auto qa = a.fetch_q();

  LocalCtx on(cfg);
  on.set_renumber(true);
  airfoil::Airfoil<double, LocalCtx> b(on, m);
  b.run(2, 0);
  const auto qb = b.fetch_q();

  if (qa.size() != qb.size()) return false;
  // Divergence relative to the field norm (near-zero components are pure
  // cancellation residue, so element-wise relative error is meaningless).
  double norm = 0.0, max_diff = 0.0;
  for (std::size_t i = 0; i < qa.size(); ++i) {
    norm = std::max(norm, std::abs(qa[i]));
    max_diff = std::max(max_diff, std::abs(qa[i] - qb[i]));
  }
  const double rel = norm > 0.0 ? max_diff / norm : 1.0;
  std::printf("equivalence check (Seq, 2 iters): divergence %.3e of the field norm\n\n", rel);
  return rel < 1e-12;
}

struct Row {
  std::string label;
  double generator = 0, shuffled = 0, renumbered = 0;
  [[nodiscard]] double recovered() const {
    const double gap = shuffled - generator;
    return gap > 0.0 ? (shuffled - renumbered) / gap : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  Sizes sz = Sizes::from_cli(cli);
  if (!cli.has("iters")) sz.airfoil_iters = 8;
  print_header("Ablation: context-level renumbering vs shuffled-edge locality (res_calc)",
               "Reguly et al., sections 6.2/6.4 (caching behavior of indirect loops)");

  if (!equivalence_ok()) {
    std::fprintf(stderr,
                 "FAIL: renumbered execution diverged from the un-renumbered baseline\n");
    return 1;
  }

  const int nthreads = sz.threads > 0 ? sz.threads : hardware_threads();
  const ExecConfig scalar{.backend = Backend::OpenMP, .nthreads = nthreads};
  const ExecConfig vec{.backend = Backend::Simd, .simd_width = 0, .nthreads = nthreads};

  auto base = mesh::make_airfoil_omesh(sz.airfoil_ni, sz.airfoil_nj);
  auto shuffled = base;
  mesh::shuffle_edges(shuffled, 99);
  std::printf("airfoil %d cells x %d iters, %d threads\n\n", base.ncells, sz.airfoil_iters,
              nthreads);

  std::vector<Row> rows;
  {
    Row r{"local scalar (OpenMP)"};
    r.generator = res_calc_secs(run_airfoil<double>(base, scalar, sz.airfoil_iters));
    r.shuffled = res_calc_secs(run_airfoil<double>(shuffled, scalar, sz.airfoil_iters));
    r.renumbered = res_calc_secs(run_airfoil<double>(shuffled, scalar, sz.airfoil_iters, true));
    rows.push_back(r);
  }
  {
    Row r{"local vector (Simd)"};
    r.generator = res_calc_secs(run_airfoil<double>(base, vec, sz.airfoil_iters));
    r.shuffled = res_calc_secs(run_airfoil<double>(shuffled, vec, sz.airfoil_iters));
    r.renumbered = res_calc_secs(run_airfoil<double>(shuffled, vec, sz.airfoil_iters, true));
    rows.push_back(r);
  }
  if (!cli.has("no-dist")) {
    std::vector<int> rank_counts;
    if (cli.has("ranks")) rank_counts.push_back(static_cast<int>(cli.get_int("ranks", 4)));
    else rank_counts = {2, 4};
    const ExecConfig rank_cfg{.backend = Backend::OpenMP, .nthreads = 1};
    for (int nr : rank_counts) {
      Row r{"dist " + std::to_string(nr) + " ranks"};
      r.generator = res_calc_secs(run_airfoil_dist<double>(base, nr, rank_cfg, sz.airfoil_iters));
      r.shuffled =
          res_calc_secs(run_airfoil_dist<double>(shuffled, nr, rank_cfg, sz.airfoil_iters));
      r.renumbered = res_calc_secs(
          run_airfoil_dist<double>(shuffled, nr, rank_cfg, sz.airfoil_iters, true));
      rows.push_back(r);
    }
  }

  perf::Table t({"configuration", "generator (s)", "shuffled (s)", "renumbered (s)",
                 "recovered"});
  for (const Row& r : rows)
    t.add_row({r.label, perf::Table::num(r.generator, 3), perf::Table::num(r.shuffled, 3),
               perf::Table::num(r.renumbered, 3), perf::Table::pct(r.recovered(), 1)});
  t.print();

  const PlanColors pc_shuf = plan_colors(shuffled, false);
  const PlanColors pc_ren = plan_colors(shuffled, true);
  perf::Table ct({"edge ordering", "block colors", "max elem colors", "global colors"});
  ct.add_row({"shuffled", std::to_string(pc_shuf.block_colors),
              std::to_string(pc_shuf.elem_colors), std::to_string(pc_shuf.global_colors)});
  ct.add_row({"renumbered", std::to_string(pc_ren.block_colors),
              std::to_string(pc_ren.elem_colors), std::to_string(pc_ren.global_colors)});
  std::printf("\n");
  ct.print();

  std::printf("\nShape check: the context pass should recover most (>= 70%% on a quiet\n"
              "machine at default sizes) of the generator-vs-shuffled res_calc gap —\n"
              "the locality sections 6.2/6.4 assume, now a runtime guarantee.\n");

  const std::string json = cli.get("json", "");
  if (!json.empty()) {
    FILE* f = std::fopen(json.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"ablation_renumber\",\n  \"mesh\": \"%s\",\n",
                 base.name.c_str());
    std::fprintf(f, "  \"cells\": %d,\n  \"iters\": %d,\n  \"threads\": %d,\n", base.ncells,
                 sz.airfoil_iters, nthreads);
    std::fprintf(f, "  \"rows\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "    {\"config\": \"%s\", \"generator_s\": %.6f, \"shuffled_s\": %.6f, "
                   "\"renumbered_s\": %.6f, \"recovered\": %.4f}%s\n",
                   r.label.c_str(), r.generator, r.shuffled, r.renumbered, r.recovered(),
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"plan_colors\": {\"shuffled\": {\"block\": %d, \"elem\": %d, \"global\": "
                 "%d}, \"renumbered\": {\"block\": %d, \"elem\": %d, \"global\": %d}}\n}\n",
                 pc_shuf.block_colors, pc_shuf.elem_colors, pc_shuf.global_colors,
                 pc_ren.block_colors, pc_ren.elem_colors, pc_ren.global_colors);
    std::fclose(f);
    std::printf("\nwrote %s\n", json.c_str());
  }
  return 0;
}
