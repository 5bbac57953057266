// Ablation: the context's memory layout (core/layout.hpp) — AoS vs SoA per
// Airfoil and Tet3D step (the summed seconds of every loop), beside the
// paper's hardest indirect loop (Airfoil res_calc) and its 3D sibling (Tet3D
// t3d_flux_calc).
//
// The vectorized paths of sections 6.1-6.4 pay a strided-access tax on every
// multi-component dat when storage is locked to AoS: a W-wide gather of
// component c touches W cache lines dim elements apart. SoA turns those into
// dense per-plane gathers (and direct accesses into unit-stride plane loads).
// This bench measures that axis per backend on renumbered meshes and doubles
// as a functional smoke:
//
//   * Seq must be BITWISE identical across both layouts (the W = 1 argument
//     state stages an SoA row pre-loaded for every access mode, so the
//     kernel sees the same values in the same order);
//   * every backend x layout must match the Seq/AoS reference within 1e-12
//     of the field norm (coloring already reassociates sums, so bitwise is
//     the wrong bar there).
//
// The bench exits non-zero on any divergence.
//
// Each (app, backend, layout) cell is timed kSamples times, alternating AoS
// and SoA runs so host drift hits both layouts alike; the table and the JSON
// record the median and the min-max per cell, and the SoA-vs-AoS column and
// the headline compare medians. The headline is the per-step ratio on the
// vector backends, where default_layout() picks SoA: a layout that loses
// one loop can still win the step.
//
//   ./ablation_layout [--small|--large] [--iters=N] [--threads=N] [--json=FILE]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "apps/tet3d/tet3d.hpp"
#include "bench_common.hpp"
#include "common/stats.hpp"
#include "mesh/tetmesh.hpp"

using namespace opv;
using namespace opv::bench;

namespace {

constexpr Layout kLayouts[2] = {Layout::AoS, Layout::SoA};
constexpr int kSamples = 5;  ///< timed runs per (app, backend, layout) cell

const std::vector<std::string>& tet3d_kernels() {
  static const std::vector<std::string> k = {"t3d_save_u",    "t3d_grad_calc",
                                             "t3d_bgrad_calc", "t3d_flux_calc",
                                             "t3d_bflux_calc", "t3d_update_u"};
  return k;
}

/// One timed run: the headline loop's seconds over the run, and the summed
/// seconds of every loop per step (in ms).
struct Timing {
  double loop_s = 0.0;
  double step_ms = 0.0;
};

Timing timing(const std::vector<KernelRow>& rows, const char* loop, int steps) {
  Timing t;
  for (const auto& r : rows)
    if (r.name == loop) t.loop_s = r.seconds;
  t.step_ms = 1e3 * total_seconds(rows) / steps;
  return t;
}

/// Airfoil under a layout (renumbered, warmup excluded).
Timing run_airfoil_layout(const mesh::UnstructuredMesh& m, ExecConfig cfg, int iters, Layout l) {
  LocalCtx ctx(cfg);
  ctx.set_renumber(true);
  ctx.set_default_layout(l);
  airfoil::Airfoil<double, LocalCtx> app(ctx, m);
  app.run(1, 0);  // warmup
  clear_stats();
  app.run(iters, 0);
  return timing(collect_rows(airfoil_kernels(), sizeof(double)), "res_calc", iters);
}

/// Tet3D under a layout (renumbered, warmup excluded).
Timing run_tet3d_layout(const mesh::TetMesh& m, ExecConfig cfg, int steps, Layout l) {
  LocalCtx ctx(cfg);
  ctx.set_renumber(true);
  ctx.set_default_layout(l);
  tet3d::Tet3D<double, LocalCtx> app(ctx, m);
  app.run(1, 0);  // warmup
  clear_stats();
  app.run(steps, 0);
  return timing(collect_rows(tet3d_kernels(), sizeof(double)), "t3d_flux_calc", steps);
}

aligned_vector<double> airfoil_field(const mesh::UnstructuredMesh& m, const ExecConfig& cfg,
                                     Layout l, int iters) {
  LocalCtx ctx(cfg);
  ctx.set_renumber(true);
  ctx.set_default_layout(l);
  airfoil::Airfoil<double, LocalCtx> app(ctx, m);
  app.run(iters, 0);
  return app.fetch_q();
}

aligned_vector<double> tet3d_field(const mesh::TetMesh& m, const ExecConfig& cfg, Layout l,
                                   int steps) {
  LocalCtx ctx(cfg);
  ctx.set_renumber(true);
  ctx.set_default_layout(l);
  tet3d::Tet3D<double, LocalCtx> app(ctx, m);
  app.run(steps, 0);
  return app.fetch_u();
}

bool bitwise_equal(const aligned_vector<double>& a, const aligned_vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

double field_norm_divergence(const aligned_vector<double>& ref, const aligned_vector<double>& got) {
  if (ref.size() != got.size()) return 1.0;
  double norm = 0.0, max_diff = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    norm = std::max(norm, std::abs(ref[i]));
    max_diff = std::max(max_diff, std::abs(ref[i] - got[i]));
  }
  return norm > 0.0 ? max_diff / norm : 1.0;
}

/// Functional gate on small meshes: Seq bitwise across layouts; vector
/// backends within 1e-12 of the field norm of Seq/AoS.
bool equivalence_ok() {
  const auto m2 = mesh::make_airfoil_omesh(96, 32);
  const auto m3 = mesh::make_tet_box(6, 6, 5);
  const int iters = 2;
  const ExecConfig seq{.backend = Backend::Seq};
  bool ok = true;

  const auto q_ref = airfoil_field(m2, seq, Layout::AoS, iters);
  const auto u_ref = tet3d_field(m3, seq, Layout::AoS, iters);
  if (!bitwise_equal(q_ref, airfoil_field(m2, seq, Layout::SoA, iters))) {
    std::fprintf(stderr, "FAIL: Airfoil Seq/SoA not bitwise equal to Seq/AoS\n");
    ok = false;
  }
  if (!bitwise_equal(u_ref, tet3d_field(m3, seq, Layout::SoA, iters))) {
    std::fprintf(stderr, "FAIL: Tet3D Seq/SoA not bitwise equal to Seq/AoS\n");
    ok = false;
  }
  std::printf("gate: Seq bitwise identity across layouts (Airfoil q, Tet3D u): %s\n",
              ok ? "ok" : "FAILED");

  struct VecCfg {
    const char* label;
    ExecConfig cfg;
  };
  const std::vector<VecCfg> vec_cfgs = {
      {"OpenMP", {.backend = Backend::OpenMP, .nthreads = 2}},
      {"Simd", {.backend = Backend::Simd}},
      {"Simt", {.backend = Backend::Simt}},
  };
  for (const auto& vc : vec_cfgs) {
    for (Layout l : kLayouts) {
      const double dq = field_norm_divergence(q_ref, airfoil_field(m2, vc.cfg, l, iters));
      const double du = field_norm_divergence(u_ref, tet3d_field(m3, vc.cfg, l, iters));
      const double d = std::max(dq, du);
      if (d >= 1e-12) {
        std::fprintf(stderr, "FAIL: %s/%s diverged %.3e of the field norm from Seq/AoS\n",
                     vc.label, layout_name(l), d);
        ok = false;
      }
    }
  }
  std::printf("gate: vector backends x layouts within 1e-12 field norm of Seq/AoS: %s\n\n",
              ok ? "ok" : "FAILED");
  return ok;
}

/// One perf row: a backend's timings per layout, kSamples each.
struct Row {
  std::string label;
  bool vector_backend = false;
  std::vector<double> secs[2];  ///< s (or ms per step), indexed like kLayouts

  [[nodiscard]] double median(int l) const {
    std::vector<double> s = secs[l];
    std::sort(s.begin(), s.end());
    return s[s.size() / 2];
  }
  [[nodiscard]] double min(int l) const {
    return *std::min_element(secs[l].begin(), secs[l].end());
  }
  [[nodiscard]] double max(int l) const {
    return *std::max_element(secs[l].begin(), secs[l].end());
  }
  [[nodiscard]] double soa_speedup() const {
    return median(1) > 0.0 ? median(0) / median(1) : 0.0;
  }
};

void print_rows(const std::vector<Row>& rows, const char* unit) {
  const std::string u = unit;
  perf::Table t({"backend", "AoS median (" + u + ")", "AoS min-max", "SoA median (" + u + ")",
                 "SoA min-max", "SoA vs AoS"});
  const auto range = [](double lo, double hi) {
    return perf::Table::num(lo, 3) + "-" + perf::Table::num(hi, 3);
  };
  for (const Row& r : rows)
    t.add_row({r.label, perf::Table::num(r.median(0), 3), range(r.min(0), r.max(0)),
               perf::Table::num(r.median(1), 3), range(r.min(1), r.max(1)),
               perf::Table::num(r.soa_speedup(), 2) + "x"});
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  Sizes sz = Sizes::from_cli(cli);
  if (!cli.has("iters")) sz.airfoil_iters = 8;
  const idx_t tet_n = cli.has("large") ? 56 : (cli.has("small") ? 24 : 40);
  print_header("Ablation: memory layout (AoS / SoA), per step and per loop",
               "Reguly et al., sections 6.1-6.4 (strided access of vectorized indirect loops)");

  if (!equivalence_ok()) {
    std::fprintf(stderr, "FAIL: layout equivalence gate\n");
    return 1;
  }

  const int nthreads = sz.threads > 0 ? sz.threads : hardware_threads();
  struct BackendCfg {
    const char* label;
    bool vector_backend;
    ExecConfig cfg;
  };
  const std::vector<BackendCfg> backends = {
      {"Seq", false, {.backend = Backend::Seq}},
      {"OpenMP", false, {.backend = Backend::OpenMP, .nthreads = nthreads}},
      {"Simd", true, {.backend = Backend::Simd, .simd_width = 0, .nthreads = nthreads}},
      {"Simt", true, {.backend = Backend::Simt, .simd_width = 0, .nthreads = nthreads}},
  };

  const auto m2 = mesh::make_airfoil_omesh(sz.airfoil_ni, sz.airfoil_nj);
  const mesh::TetMesh m3 = mesh::make_tet_box(tet_n, tet_n, tet_n);
  std::printf("airfoil %d cells x %d iters, tet box %d cells x %d steps, %d threads, "
              "%d samples per cell\n\n",
              m2.ncells, sz.airfoil_iters, m3.ncells, sz.volna_steps, nthreads, kSamples);

  // Per app: the headline loop (seconds over the run) and the step (summed
  // loop ms per step), one Row per backend each.
  std::vector<Row> af_loop, af_step, tet_loop, tet_step;
  for (const auto& bc : backends) {
    for (auto* rows : {&af_loop, &af_step, &tet_loop, &tet_step})
      rows->push_back({bc.label, bc.vector_backend, {}});
    for (int s = 0; s < kSamples; ++s)
      for (int i = 0; i < 2; ++i) {
        const Timing af = run_airfoil_layout(m2, bc.cfg, sz.airfoil_iters, kLayouts[i]);
        const Timing tet = run_tet3d_layout(m3, bc.cfg, sz.volna_steps, kLayouts[i]);
        af_loop.back().secs[i].push_back(af.loop_s);
        af_step.back().secs[i].push_back(af.step_ms);
        tet_loop.back().secs[i].push_back(tet.loop_s);
        tet_step.back().secs[i].push_back(tet.step_ms);
      }
  }

  std::printf("Airfoil step, every loop (renumbered mesh):\n");
  print_rows(af_step, "ms/step");
  std::printf("\nAirfoil res_calc:\n");
  print_rows(af_loop, "s");
  std::printf("\nTet3D step, every loop (renumbered mesh):\n");
  print_rows(tet_step, "ms/step");
  std::printf("\nTet3D t3d_flux_calc:\n");
  print_rows(tet_loop, "s");

  // Headline: the vector backends' step ratios (where default_layout picks
  // SoA); the headline value is the lowest of them, the ratio SoA reaches
  // on every vector backend and app.
  double headline = 0.0;
  std::string headline_at;
  std::printf("\nMeasured per step, SoA vs AoS (median ratio) on the vector backends:\n");
  for (std::size_t b = 0; b < af_step.size(); ++b) {
    if (!af_step[b].vector_backend) continue;
    const double a = af_step[b].soa_speedup(), t = tet_step[b].soa_speedup();
    std::printf("  %-6s Airfoil %.2fx, Tet3D %.2fx\n", af_step[b].label.c_str(), a, t);
    for (const auto& [ratio, app] : {std::pair{a, "Airfoil"}, std::pair{t, "Tet3D"}})
      if (headline_at.empty() || ratio < headline) {
        headline = ratio;
        headline_at = af_step[b].label + " " + app;
      }
  }
  std::printf("headline: step SoA vs AoS on the vector backends >= %.2fx (lowest: %s)\n",
              headline, headline_at.c_str());

  const std::string json = cli.get("json", "");
  if (!json.empty()) {
    FILE* f = std::fopen(json.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", json.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"ablation_layout\",\n");
    std::fprintf(f, "  \"airfoil_cells\": %d,\n  \"tet_cells\": %d,\n", m2.ncells, m3.ncells);
    std::fprintf(f,
                 "  \"iters\": %d,\n  \"threads\": %d,\n  \"samples\": %d,\n"
                 "  \"gate\": \"pass\",\n",
                 sz.airfoil_iters, nthreads, kSamples);
    // unit: "s" (seconds over the run) or "ms" (ms per step).
    const auto dump = [&](const char* key, const std::vector<Row>& rows, const char* unit) {
      std::fprintf(f, "  \"%s\": [\n", key);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        std::fprintf(f,
                     "    {\"backend\": \"%s\", \"aos_%s\": %.6f, \"aos_min_%s\": %.6f, "
                     "\"aos_max_%s\": %.6f, \"soa_%s\": %.6f, \"soa_min_%s\": %.6f, "
                     "\"soa_max_%s\": %.6f, \"soa_speedup\": %.4f}%s\n",
                     r.label.c_str(), unit, r.median(0), unit, r.min(0), unit, r.max(0), unit,
                     r.median(1), unit, r.min(1), unit, r.max(1), r.soa_speedup(),
                     i + 1 < rows.size() ? "," : "");
      }
      std::fprintf(f, "  ],\n");
    };
    dump("airfoil_step", af_step, "ms");
    dump("airfoil_res_calc", af_loop, "s");
    dump("tet3d_step", tet_step, "ms");
    dump("tet3d_flux_calc", tet_loop, "s");
    std::fprintf(f,
                 "  \"headline\": \"step SoA vs AoS, lowest over the vector backends\",\n"
                 "  \"headline_speedup\": %.4f,\n  \"headline_backend\": \"%s\"\n}\n",
                 headline, headline_at.c_str());
    std::fclose(f);
    std::printf("\nwrote %s\n", json.c_str());
  }
  return 0;
}
