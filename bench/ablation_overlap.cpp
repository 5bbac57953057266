// Ablation: blocking vs overlapped halo exchange (paper section 6.5).
//
// The paper's distributed results depend on hiding halo-exchange latency
// behind interior compute: each rank first executes the elements that touch
// no halo data while the exchange is in flight, then waits, then executes
// the boundary elements. This bench measures the three schedules a
// dist::Loop supports on an exchange-bound pipeline (the cell loop dirties
// q every iteration, so the edge loop exchanges every iteration):
//
//   Blocking  exchange, then one contiguous run (the classic path)
//   Phased    exchange, then interior slice, then boundary slice — the
//             overlapped schedule with a blocking exchange; results are
//             bitwise-identical to Overlap, so the time difference is
//             exactly what the overlap buys
//   Overlap   begin exchange -> interior (the driver thread waits for the
//             exchange meanwhile) -> boundary
//
// All modes run the StagedExchanger (per-neighbor pack/unpack, async): the
// transport a real MPI backend would mirror. Reported per configuration:
// the measured interior fraction (the work available to hide the exchange
// behind), the point-to-point message count one exchange needs, exchange
// seconds, and the bitwise Phased==Overlap check.
//
//   ./ablation_overlap [--n=192] [--iters=20] [--ranks=8]

#include <cstring>
#include <memory>

#include "bench_common.hpp"
#include "dist/loop.hpp"

using namespace opv;
using namespace opv::bench;

namespace {

/// Edge kernel with enough arithmetic that interior compute can actually
/// hide an exchange (the paper's loops are sqrt/div heavy, Table II).
struct EdgeK {
  template <class T>
  void operator()(const T* ql, const T* qr, const T* w, T* a1, T* a2) const {
    OPV_SIMD_MATH_USING;
    const T d = sqrt(abs(ql[0] - qr[0]) + T(0.25)) * w[0] +
                sqrt(abs(ql[0]) + T(1.0)) / sqrt(abs(qr[0]) + T(2.0));
    a1[0] += d;
    a2[0] -= d * T(0.5);
  }
};
/// Cell update: writes q, so the next edge run must exchange q's halo.
struct CellK {
  template <class T>
  void operator()(T* q, T* a) const {
    q[0] = q[0] + a[0] * T(0.01);
    a[0] = T(0);
  }
};

struct Result {
  double secs = 0;
  double exch_secs = 0;
  double interior = 0;
  int messages = 0;  ///< point-to-point messages one q exchange needs
  aligned_vector<double> q;
};

Result run_mode(const mesh::UnstructuredMesh& m, const aligned_vector<double>& cent, int ranks,
                dist::ExchangeMode mode, int iters) {
  dist::DistCtx ctx(ranks, ExecConfig{.backend = Backend::Simd, .nthreads = 1});
  auto staged = std::make_unique<dist::StagedExchanger>();
  dist::StagedExchanger* transport = staged.get();
  ctx.set_exchanger(std::move(staged));
  ctx.set_exchange_mode(mode);

  auto cells = ctx.decl_set("cells", m.ncells);
  auto edges = ctx.decl_set("edges", m.nedges);
  ctx.set_partition_coords(cells, cent.data());
  auto e2c = ctx.decl_map("e2c", edges, cells, 2, m.edge_cells);
  aligned_vector<double> qi(m.ncells);
  for (idx_t c = 0; c < m.ncells; ++c) qi[c] = 1.0 + 0.01 * (c % 37);
  auto q = ctx.decl_dat<double, 1>("q", cells, qi);
  auto acc = ctx.decl_dat<double, 1>("acc", cells);
  auto w = ctx.decl_dat<double, 1>("w", edges, aligned_vector<double>(m.nedges, 0.3));

  dist::Loop edge(ctx, EdgeK{}, "ov_edge", edges, ctx.arg<opv::READ>(q, 0, e2c),
                  ctx.arg<opv::READ>(q, 1, e2c), ctx.arg<opv::READ>(w),
                  ctx.arg<opv::INC>(acc, 0, e2c), ctx.arg<opv::INC>(acc, 1, e2c));
  dist::Loop cell(ctx, CellK{}, "ov_cell", cells, ctx.arg<opv::RW>(q),
                  ctx.arg<opv::RW>(acc));

  // Warmup: plan + staging construction, first-touch. Runs under the same
  // mode, so Phased and Overlap stay bitwise-comparable end to end.
  edge.run();
  cell.run();

  clear_stats();
  WallTimer t;
  for (int it = 0; it < iters; ++it) {
    edge.run();
    cell.run();
  }
  Result res;
  res.secs = t.seconds();
  res.exch_secs = StatsRegistry::instance().get("ov_edge").exchange_seconds;
  res.interior = edge.interior_fraction();
  res.messages = transport->message_count(ctx.partitioned(), cells);
  ctx.fetch(q, res.q);
  return res;
}

bool bitwise_equal(const aligned_vector<double>& a, const aligned_vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto n = static_cast<idx_t>(cli.get_int("n", 0));
  const int iters = static_cast<int>(cli.get_int("iters", 20));
  const int one_ranks = static_cast<int>(cli.get_int("ranks", 0));
  print_header("Ablation: blocking vs overlapped halo exchange",
               "Reguly et al., section 6.5 (interior/boundary overlap)");

  std::vector<idx_t> sizes = n > 0 ? std::vector<idx_t>{n} : std::vector<idx_t>{96, 192};
  std::vector<int> rank_counts =
      one_ranks > 0 ? std::vector<int>{one_ranks} : std::vector<int>{2, 4, 8};

  perf::Table t({"mesh", "ranks", "interior", "msgs", "mode", "total (s)", "exch (s)",
                 "vs blocking", "bitwise==phased"});
  bool all_bitwise = true;
  for (idx_t s : sizes) {
    auto m = mesh::make_quad_box(s, s);
    const auto cent = airfoil::cell_centroids(m);
    const std::string label = std::to_string(m.ncells) + " cells";
    for (int ranks : rank_counts) {
      const Result blocking = run_mode(m, cent, ranks, dist::ExchangeMode::Blocking, iters);
      const Result phased = run_mode(m, cent, ranks, dist::ExchangeMode::Phased, iters);
      const Result overlap = run_mode(m, cent, ranks, dist::ExchangeMode::Overlap, iters);
      const bool bitwise = bitwise_equal(phased.q, overlap.q);
      all_bitwise &= bitwise;
      auto row = [&](dist::ExchangeMode mode, const Result& r, const char* bw) {
        t.add_row({label, std::to_string(ranks), perf::Table::pct(overlap.interior, 1),
                   std::to_string(r.messages), dist::exchange_mode_name(mode),
                   perf::Table::num(r.secs, 4), perf::Table::num(r.exch_secs, 4),
                   perf::Table::num(blocking.secs / r.secs, 2), bw});
      };
      row(dist::ExchangeMode::Blocking, blocking, "-");
      row(dist::ExchangeMode::Phased, phased, "-");
      row(dist::ExchangeMode::Overlap, overlap, bitwise ? "yes" : "NO");
    }
  }
  t.print();

  std::printf("\nShape check vs paper section 6.5: overlapped execution hides the\n"
              "exchange behind the interior elements (the vast majority of each\n"
              "rank's work), so Overlap beats Phased by roughly the exchange time;\n"
              "Phased and Overlap are bitwise-identical (%s) because they run the\n"
              "same pinned interior/boundary schedule.\n",
              all_bitwise ? "verified" : "VIOLATED");
  return all_bitwise ? 0 : 1;
}
