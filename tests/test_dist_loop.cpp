// Tests for the persistent distributed-loop API (dist/loop.hpp): bitwise
// equivalence of dist::Loop::run() with the one-shot DistCtx::loop on
// airfoil-style loops, dirty-bit laziness across repeated runs (verified
// through a counting Exchanger — the pluggable-transport seam), exchange-
// plan pinning, per-rank imbalance stats, construction-time argument
// validation, and negative-compile asserts for invalid dist arg/access
// combinations. Phased execution (paper §6.5): the interior as each rank's
// core range, begin/wait pairing through the non-blocking Exchanger
// interface, bitwise Overlap==Phased equivalence across rank
// counts/backends/transports (and ==Blocking on Seq), the automatic
// blocking fallback for loops that write what they read stale, failed
// exchanges, and per-loop exchange accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <type_traits>

#include "apps/airfoil/airfoil.hpp"
#include "dist/context.hpp"
#include "dist/fault.hpp"
#include "dist/loop.hpp"
#include "mesh/generators.hpp"
#include "perf/table.hpp"

namespace {

using namespace opv;
using namespace opv::dist;

// ---- compile-time access validation ----------------------------------------
// Invalid dist arg/access combinations must fail to COMPILE, exactly like
// the opv::arg builders they mirror.

template <AccessMode A>
concept DistDatDirectOk =
    requires(DistCtx& c, DistCtx::FixedDatHandle<double, 1> d) { c.arg<A>(d); };
template <AccessMode A>
concept DistDatIndirectOk =
    requires(DistCtx& c, DistCtx::FixedDatHandle<double, 1> d, DistCtx::MapHandle m) {
      c.arg<A>(d, 0, m);
    };
template <AccessMode A>
concept DistGblOk = requires(DistCtx& c, double* p) { c.arg_gbl<A>(p, 1); };

static_assert(DistDatDirectOk<opv::READ> && DistDatDirectOk<opv::WRITE> &&
              DistDatDirectOk<opv::RW> && DistDatDirectOk<opv::INC>);
static_assert(!DistDatDirectOk<opv::MIN>, "MIN reductions are global-only");
static_assert(!DistDatDirectOk<opv::MAX>, "MAX reductions are global-only");
static_assert(!DistDatIndirectOk<opv::MIN> && !DistDatIndirectOk<opv::MAX>);
static_assert(DistGblOk<opv::READ> && DistGblOk<opv::INC> && DistGblOk<opv::MIN> &&
              DistGblOk<opv::MAX>);
static_assert(!DistGblOk<opv::WRITE>, "globals cannot be element-wise written");
static_assert(!DistGblOk<opv::RW>, "globals cannot be read-modify-written");

// Compile-time conflict classification carries over to dist descriptors.
static_assert(dist::Loop<int, DistArgDat<double, opv::INC, 1, true>>::has_inc);
static_assert(!dist::Loop<int, DistArgDat<double, opv::READ, 1, true>,
                          DistArgGbl<double, opv::INC>>::has_inc);

// Compile-time Dim carries through the dist descriptors into the per-rank
// opv::Arg bindings, and a Dim outside [1,kMaxDim] fails to compile.
static_assert(std::is_same_v<dist::detail::rank_arg_t<DistArgDat<double, opv::INC, 4, true>>,
                             opv::Arg<double, opv::INC, 4, true>>);
template <int Dim>
concept DistArgTypeOk = requires { typename DistArgDat<double, opv::READ, Dim, false>; };
static_assert(DistArgTypeOk<1> && !DistArgTypeOk<0> && !DistArgTypeOk<kMaxDim + 1>);

// The handle's N is the descriptor Dim; no explicit-Dim spelling compiles.
template <int Dim, class H>
concept DistExplicitDimOk = requires(DistCtx& c, H d, DistCtx::MapHandle m) {
  c.arg<opv::READ, Dim>(d);
} || requires(DistCtx& c, H d, DistCtx::MapHandle m) { c.arg<opv::READ, Dim>(d, 0, m); };
static_assert(!DistExplicitDimOk<3, DistCtx::FixedDatHandle<double, 3>>);
static_assert(std::is_same_v<decltype(std::declval<DistCtx&>().arg<opv::INC>(
                                 std::declval<DistCtx::FixedDatHandle<double, 3>>(), 0, 0)),
                             DistArgDat<double, opv::INC, 3, true>>);

// ---- fixture: airfoil-style edge/cell pipeline ------------------------------

struct EdgeK {
  template <class T>
  void operator()(const T* x1, const T* x2, const T* w, T* c1, T* c2) const {
    OPV_SIMD_MATH_USING;
    const T d = sqrt(abs(x1[0] - x2[0]) + T(0.5)) * w[0];
    c1[0] += d;
    c2[0] -= d * T(0.5);
  }
};
struct CellK {
  template <class T>
  void operator()(T* q, const T* a, T* gsum, T* gmin) const {
    OPV_SIMD_MATH_USING;
    q[0] = q[0] + a[0] * T(0.1);
    gsum[0] += q[0];
    gmin[0] = min(gmin[0], q[0]);
  }
};

/// One DistCtx universe with the quad-box mesh: nodes/cells/edges, e2n/e2c
/// maps, x (node coords), w (edge weight), q and acc (cell state).
struct Universe {
  mesh::UnstructuredMesh m;
  DistCtx ctx;
  DistCtx::SetHandle nodes, cells, edges;
  DistCtx::MapHandle e2n, e2c;
  DistCtx::FixedDatHandle<double, 2> x;
  DistCtx::FixedDatHandle<double, 1> w, acc, q;

  Universe(int nranks, ExecConfig cfg, idx_t ni = 21, idx_t nj = 17)
      : m(mesh::make_quad_box(ni, nj)), ctx(nranks, cfg) {
    nodes = ctx.decl_set("nodes", m.nnodes);
    cells = ctx.decl_set("cells", m.ncells);
    edges = ctx.decl_set("edges", m.nedges);
    const auto cent = airfoil::cell_centroids(m);
    ctx.set_partition_coords(cells, cent.data());
    e2n = ctx.decl_map("e2n", edges, nodes, 2, m.edge_nodes);
    e2c = ctx.decl_map("e2c", edges, cells, 2, m.edge_cells);
    x = ctx.decl_dat<double, 2>("x", nodes, m.node_xy);
    w = ctx.decl_dat<double, 1>("w", edges, aligned_vector<double>(m.nedges, 0.7));
    acc = ctx.decl_dat<double, 1>("acc", cells);
    aligned_vector<double> qi(m.ncells);
    for (idx_t c = 0; c < m.ncells; ++c) qi[c] = 0.01 * (c % 29);
    q = ctx.decl_dat<double, 1>("q", cells, qi);
    ctx.finalize();
  }
};

// ---- equivalence with the one-shot path -------------------------------------

class DistLoopEquivP : public ::testing::TestWithParam<std::tuple<int, Backend>> {};

TEST_P(DistLoopEquivP, BitwiseMatchesOneShot) {
  const auto [nranks, backend] = GetParam();
  const ExecConfig cfg{.backend = backend, .nthreads = backend == Backend::Seq ? 1 : 2};

  // Reference: the one-shot DistCtx::loop call shape, every iteration.
  Universe a(nranks, cfg);
  double gsum_a = 0, gmin_a = 0;
  for (int it = 0; it < 4; ++it) {
    a.ctx.loop(EdgeK{}, "dl_edge", a.edges, a.ctx.arg<opv::READ>(a.x, 0, a.e2n),
               a.ctx.arg<opv::READ>(a.x, 1, a.e2n), a.ctx.arg<opv::READ>(a.w),
               a.ctx.arg<opv::INC>(a.acc, 0, a.e2c), a.ctx.arg<opv::INC>(a.acc, 1, a.e2c));
    gsum_a = 0;
    gmin_a = 1e300;
    a.ctx.loop(CellK{}, "dl_cell", a.cells, a.ctx.arg<opv::RW>(a.q),
               a.ctx.arg<opv::READ>(a.acc), a.ctx.arg_gbl<opv::INC>(&gsum_a, 1),
               a.ctx.arg_gbl<opv::MIN>(&gmin_a, 1));
  }

  // Handles: constructed once, run every iteration.
  Universe b(nranks, cfg);
  double gsum_b = 0, gmin_b = 0;
  dist::Loop edge(b.ctx, EdgeK{}, "dl_edge_h", b.edges, b.ctx.arg<opv::READ>(b.x, 0, b.e2n),
                  b.ctx.arg<opv::READ>(b.x, 1, b.e2n), b.ctx.arg<opv::READ>(b.w),
                  b.ctx.arg<opv::INC>(b.acc, 0, b.e2c), b.ctx.arg<opv::INC>(b.acc, 1, b.e2c));
  dist::Loop cell(b.ctx, CellK{}, "dl_cell_h", b.cells, b.ctx.arg<opv::RW>(b.q),
                  b.ctx.arg<opv::READ>(b.acc), b.ctx.arg_gbl<opv::INC>(&gsum_b, 1),
                  b.ctx.arg_gbl<opv::MIN>(&gmin_b, 1));
  static_assert(decltype(edge)::has_inc);
  static_assert(!decltype(cell)::has_inc);
  for (int it = 0; it < 4; ++it) {
    edge.run();
    gsum_b = 0;
    gmin_b = 1e300;
    cell.run();
  }

  // Same arithmetic in the same order: results must be bitwise identical.
  aligned_vector<double> qa, qb, acca, accb;
  a.ctx.fetch(a.q, qa);
  b.ctx.fetch(b.q, qb);
  a.ctx.fetch(a.acc, acca);
  b.ctx.fetch(b.acc, accb);
  ASSERT_EQ(qa.size(), qb.size());
  for (std::size_t i = 0; i < qa.size(); ++i) ASSERT_EQ(qa[i], qb[i]) << "cell " << i;
  for (std::size_t i = 0; i < acca.size(); ++i) ASSERT_EQ(acca[i], accb[i]) << "cell " << i;
  EXPECT_EQ(gsum_a, gsum_b);
  EXPECT_EQ(gmin_a, gmin_b);
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndBackends, DistLoopEquivP,
    ::testing::Combine(::testing::Values(1, 3, 6),
                       ::testing::Values(Backend::Seq, Backend::OpenMP, Backend::Simd)));

// ---- Exchanger seam: counting transport -------------------------------------

/// Wraps the default transport and counts calls — the test double a real
/// MPI transport would replace.
struct CountingExchanger final : Exchanger {
  MemcpyExchanger inner;
  int calls = 0;
  std::int64_t values = 0;
  std::int64_t exchange(const Partitioned& part, const DatHaloView& view) override {
    ++calls;
    const std::int64_t n = inner.exchange(part, view);
    values += n;
    return n;
  }
  [[nodiscard]] const char* name() const override { return "counting"; }
};

struct GatherQ {
  template <class T>
  void operator()(const T* ql, const T* qr, T* a1, T* a2) const {
    const T f = ql[0] - qr[0];
    a1[0] += f;
    a2[0] -= f;
  }
};
struct BumpQ {
  template <class T>
  void operator()(T* q, const T* a) const {
    q[0] = q[0] + a[0] * T(0.01);
  }
};

TEST(DistLoop, DirtyBitsStayLazyAcrossRuns) {
  Universe u(3, ExecConfig{.backend = Backend::Seq, .nthreads = 1});
  auto counter = std::make_unique<CountingExchanger>();
  CountingExchanger* c = counter.get();
  u.ctx.set_exchanger(std::move(counter));

  dist::Loop edge(u.ctx, GatherQ{}, "lazy_edge", u.edges, u.ctx.arg<opv::READ>(u.q, 0, u.e2c),
                  u.ctx.arg<opv::READ>(u.q, 1, u.e2c), u.ctx.arg<opv::INC>(u.acc, 0, u.e2c),
                  u.ctx.arg<opv::INC>(u.acc, 1, u.e2c));
  dist::Loop cell(u.ctx, BumpQ{}, "lazy_cell", u.cells, u.ctx.arg<opv::RW>(u.q),
                  u.ctx.arg<opv::READ>(u.acc));

  // Initial halos are fresh from materialize(): reads trigger no exchange.
  edge.run();
  EXPECT_EQ(c->calls, 0) << "clean dats must not be exchanged";
  edge.run();
  EXPECT_EQ(c->calls, 0) << "nothing written between runs: still no exchange";

  // cell writes q -> the next edge run must refresh exactly one dat (q).
  cell.run();
  edge.run();
  EXPECT_EQ(c->calls, 1);
  EXPECT_GT(c->values, 0) << "halo traffic must flow through the Exchanger";
  edge.run();
  EXPECT_EQ(c->calls, 1) << "q not re-dirtied: no further exchange";
}

// ---- exchange-plan pinning --------------------------------------------------

TEST(DistLoop, ExchangePlanAndRankPlansPinned) {
  // Two threads per rank: a one-thread TwoLevel team takes no plan.
  Universe u(2, ExecConfig{.backend = Backend::Simd, .simd_width = 4, .nthreads = 2});
  dist::Loop edge(u.ctx, GatherQ{}, "pin_edge", u.edges, u.ctx.arg<opv::READ>(u.q, 0, u.e2c),
                  u.ctx.arg<opv::READ>(u.q, 1, u.e2c), u.ctx.arg<opv::INC>(u.acc, 0, u.e2c),
                  u.ctx.arg<opv::INC>(u.acc, 1, u.e2c));

  // The plan is derived at construction, before any run.
  const ExchangePlan* plan = &edge.exchange_plan();
  ASSERT_EQ(plan->read_dats, std::vector<int>{u.q.id});
  ASSERT_EQ(plan->write_dats, std::vector<int>{u.acc.id});

  edge.run();
  const Plan* rank_plan = edge.rank_loop(0).plan(u.ctx.config());
  ASSERT_NE(rank_plan, nullptr);
  edge.run();
  edge.run();
  EXPECT_EQ(&edge.exchange_plan(), plan) << "exchange plan must be pinned, not re-derived";
  EXPECT_EQ(edge.exchange_plan().read_dats, std::vector<int>{u.q.id});
  EXPECT_EQ(edge.rank_loop(0).plan(u.ctx.config()), rank_plan)
      << "per-rank coloring plan must be pinned across runs";
}

// ---- per-rank imbalance stats -----------------------------------------------

TEST(DistLoop, RecordsRankImbalance) {
  StatsRegistry::instance().clear();
  Universe u(4, ExecConfig{.backend = Backend::Seq, .nthreads = 1});
  dist::Loop edge(u.ctx, GatherQ{}, "imb_edge", u.edges, u.ctx.arg<opv::READ>(u.q, 0, u.e2c),
                  u.ctx.arg<opv::READ>(u.q, 1, u.e2c), u.ctx.arg<opv::INC>(u.acc, 0, u.e2c),
                  u.ctx.arg<opv::INC>(u.acc, 1, u.e2c));
  for (int it = 0; it < 3; ++it) edge.run();

  ASSERT_EQ(edge.rank_seconds().size(), 4u);
  for (double s : edge.rank_seconds()) EXPECT_GE(s, 0.0);

  const LoopRecord rec = StatsRegistry::instance().get("imb_edge");
  EXPECT_EQ(rec.calls, 3);
  EXPECT_EQ(rec.nranks, 4);
  EXPECT_GT(rec.rank_max_seconds, 0.0);
  EXPECT_GE(rec.rank_max_seconds, rec.rank_mean_seconds);
  EXPECT_GE(rec.rank_mean_seconds, rec.rank_min_seconds);
  EXPECT_GE(perf::rank_imbalance(rec), 1.0);

  // The stats table grows the imbalance column when rank data is present.
  const std::string table =
      perf::loop_stats_table(StatsRegistry::instance().all()).to_string();
  EXPECT_NE(table.find("max/mean imb"), std::string::npos);
  EXPECT_NE(table.find("imb_edge"), std::string::npos);
}

// ---- phased execution: the interior is the core range -----------------------

/// The interior phase is each rank's core range [0, ncore) (halo.hpp pins
/// its invariants), so the interior share is sum(ncore) / sum(nowned).
TEST(DistLoopPhases, InteriorFractionIsTheCoreShare) {
  Universe u(4, ExecConfig{.backend = Backend::Seq, .nthreads = 1});
  dist::Loop edge(u.ctx, GatherQ{}, "cls_edge", u.edges, u.ctx.arg<opv::READ>(u.q, 0, u.e2c),
                  u.ctx.arg<opv::READ>(u.q, 1, u.e2c), u.ctx.arg<opv::INC>(u.acc, 0, u.e2c),
                  u.ctx.arg<opv::INC>(u.acc, 1, u.e2c));
  ASSERT_TRUE(edge.exchange_plan().can_overlap);
  const Partitioned& part = u.ctx.partitioned();
  double core = 0.0, owned = 0.0;
  for (int r = 0; r < 4; ++r) {
    core += static_cast<double>(part.layout(r, u.edges).ncore);
    owned += static_cast<double>(part.layout(r, u.edges).nowned);
  }
  EXPECT_GT(edge.interior_fraction(), 0.0);
  EXPECT_LT(edge.interior_fraction(), 1.0);
  EXPECT_EQ(edge.interior_fraction(), core / owned);
}

/// A loop with no indirect arguments has nothing to exchange: no phases,
/// always the blocking path.
TEST(DistLoopPhases, DirectLoopIsNotPhased) {
  Universe u(3, ExecConfig{.backend = Backend::Seq, .nthreads = 1});
  dist::Loop cell(u.ctx, BumpQ{}, "cls_cell", u.cells, u.ctx.arg<opv::RW>(u.q),
                  u.ctx.arg<opv::READ>(u.acc));
  EXPECT_FALSE(cell.exchange_plan().can_overlap);
  EXPECT_EQ(cell.effective_mode(), ExchangeMode::Blocking);
}

// ---- phased execution: begin/wait pairing -----------------------------------

/// Counts the non-blocking calls and asserts the pairing contract: every
/// begin() is matched by exactly one wait() (and wait never fires without a
/// begin). That the wait lands BEFORE boundary execution is covered by the
/// bitwise Overlap==Phased tests below — a boundary element reading halo
/// values mid-flight would diverge.
struct PairingExchanger final : Exchanger {
  MemcpyExchanger inner;
  int begins = 0, waits = 0, blocking_calls = 0;
  std::vector<int> pending;
  void begin(const Partitioned&, const DatHaloView& view) override {
    ++begins;
    EXPECT_EQ(std::count(pending.begin(), pending.end(), view.dat), 0)
        << "double begin for dat " << view.dat;
    pending.push_back(view.dat);
  }
  std::int64_t wait(const Partitioned& part, const DatHaloView& view) override {
    ++waits;
    EXPECT_EQ(std::count(pending.begin(), pending.end(), view.dat), 1)
        << "wait without begin for dat " << view.dat;
    pending.erase(std::find(pending.begin(), pending.end(), view.dat));
    return inner.exchange(part, view);
  }
  std::int64_t exchange(const Partitioned& part, const DatHaloView& view) override {
    ++blocking_calls;
    return inner.exchange(part, view);
  }
  [[nodiscard]] const char* name() const override { return "pairing"; }
};

TEST(DistLoopPhases, EveryBeginPairedWithExactlyOneWait) {
  Universe u(3, ExecConfig{.backend = Backend::Seq, .nthreads = 1});
  auto pairing = std::make_unique<PairingExchanger>();
  PairingExchanger* p = pairing.get();
  u.ctx.set_exchanger(std::move(pairing));
  ASSERT_EQ(u.ctx.exchange_mode(), ExchangeMode::Overlap) << "Overlap must be the default";

  dist::Loop edge(u.ctx, GatherQ{}, "pair_edge", u.edges, u.ctx.arg<opv::READ>(u.q, 0, u.e2c),
                  u.ctx.arg<opv::READ>(u.q, 1, u.e2c), u.ctx.arg<opv::INC>(u.acc, 0, u.e2c),
                  u.ctx.arg<opv::INC>(u.acc, 1, u.e2c));
  dist::Loop cell(u.ctx, BumpQ{}, "pair_cell", u.cells, u.ctx.arg<opv::RW>(u.q),
                  u.ctx.arg<opv::READ>(u.acc));
  EXPECT_EQ(edge.effective_mode(), ExchangeMode::Overlap);

  edge.run();  // initial halos fresh: nothing begun
  EXPECT_EQ(p->begins, 0);
  for (int it = 0; it < 3; ++it) {
    cell.run();  // dirties q
    edge.run();  // must begin+wait exactly one dat (q)
  }
  EXPECT_EQ(p->begins, 3);
  EXPECT_EQ(p->waits, 3);
  EXPECT_EQ(p->blocking_calls, 0) << "Overlap mode must use the non-blocking pair";
  EXPECT_TRUE(p->pending.empty()) << "a begin was left unwaited";

  // Phased mode keeps the two-phase schedule but exchanges blockingly.
  u.ctx.set_exchange_mode(ExchangeMode::Phased);
  cell.run();
  edge.run();
  EXPECT_EQ(p->begins, 3) << "Phased mode must not use begin()";
  EXPECT_EQ(p->blocking_calls, 1);
}

// ---- phased execution: bitwise overlapped == blocking -----------------------

/// Overlap and Phased run the same pinned interior/boundary schedule; only
/// the exchange timing differs, so the results must be bitwise identical
/// across rank counts, backends and transports (the §6.5 correctness
/// criterion: overlap must not change what the loops compute). On Seq,
/// Blocking runs each rank's elements in the same core-first order too, so
/// it must match bitwise as well.
class DistOverlapEquivP
    : public ::testing::TestWithParam<std::tuple<int, Backend, bool /*staged*/>> {};

TEST_P(DistOverlapEquivP, OverlapBitwiseMatchesBlockingPhased) {
  const auto [nranks, backend, staged] = GetParam();
  const ExecConfig cfg{.backend = backend, .nthreads = backend == Backend::Seq ? 1 : 2};

  auto run_pipeline = [&](ExchangeMode mode, Universe& u) {
    if (staged) u.ctx.set_exchanger(std::make_unique<StagedExchanger>());
    u.ctx.set_exchange_mode(mode);
    dist::Loop edge(u.ctx, GatherQ{}, "ovq_edge", u.edges,
                    u.ctx.arg<opv::READ>(u.q, 0, u.e2c), u.ctx.arg<opv::READ>(u.q, 1, u.e2c),
                    u.ctx.arg<opv::INC>(u.acc, 0, u.e2c),
                    u.ctx.arg<opv::INC>(u.acc, 1, u.e2c));
    dist::Loop cell(u.ctx, BumpQ{}, "ovq_cell", u.cells, u.ctx.arg<opv::RW>(u.q),
                    u.ctx.arg<opv::READ>(u.acc));
    for (int it = 0; it < 4; ++it) {
      edge.run();
      cell.run();
    }
  };

  Universe a(nranks, cfg), b(nranks, cfg);
  run_pipeline(ExchangeMode::Phased, a);
  run_pipeline(ExchangeMode::Overlap, b);

  const auto expect_bitwise = [](Universe& x, Universe& y) {
    aligned_vector<double> qx, qy, accx, accy;
    x.ctx.fetch(x.q, qx);
    y.ctx.fetch(y.q, qy);
    x.ctx.fetch(x.acc, accx);
    y.ctx.fetch(y.acc, accy);
    ASSERT_EQ(qx.size(), qy.size());
    for (std::size_t i = 0; i < qx.size(); ++i) ASSERT_EQ(qx[i], qy[i]) << "cell " << i;
    for (std::size_t i = 0; i < accx.size(); ++i) ASSERT_EQ(accx[i], accy[i]) << "cell " << i;
  };
  expect_bitwise(a, b);
  if (backend == Backend::Seq) {
    SCOPED_TRACE("Blocking");
    Universe c(nranks, cfg);
    run_pipeline(ExchangeMode::Blocking, c);
    expect_bitwise(a, c);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RanksBackendsTransports, DistOverlapEquivP,
    ::testing::Combine(::testing::Values(1, 3, 6),
                       ::testing::Values(Backend::Seq, Backend::OpenMP, Backend::Simd),
                       ::testing::Bool()));

// ---- phased execution: automatic blocking fallback --------------------------

/// Averages the two cells of an edge in place: an indirect RW, so q is both
/// read stale and written — the transport could observe owner slots
/// mid-write, and the loop must fall back to the blocking path.
struct AvgK {
  template <class T>
  void operator()(T* ql, T* qr) const {
    const T m = (ql[0] + qr[0]) * T(0.5);
    ql[0] = m;
    qr[0] = m;
  }
};

TEST(DistLoopPhases, ReadWriteOverlapFallsBackToBlocking) {
  Universe u(3, ExecConfig{.backend = Backend::Seq, .nthreads = 1});
  auto pairing = std::make_unique<PairingExchanger>();
  PairingExchanger* p = pairing.get();
  u.ctx.set_exchanger(std::move(pairing));

  dist::Loop avg(u.ctx, AvgK{}, "rw_edge", u.edges, u.ctx.arg<opv::RW>(u.q, 0, u.e2c),
                 u.ctx.arg<opv::RW>(u.q, 1, u.e2c));
  EXPECT_FALSE(avg.exchange_plan().can_overlap)
      << "a dat both read stale and written cannot overlap";
  EXPECT_EQ(avg.effective_mode(), ExchangeMode::Blocking);

  avg.run();  // writes q -> dirty
  avg.run();  // must blocking-exchange before the run
  EXPECT_EQ(p->begins, 0) << "fallback loops must never use the non-blocking pair";
  EXPECT_GE(p->blocking_calls, 1);
}

// ---- phased execution: failed exchanges --------------------------------------

/// Dirties both cell dats the loop below reads through e2c.
struct BumpQAcc {
  template <class T>
  void operator()(T* q, T* a) const {
    q[0] = q[0] + T(0.01);
    a[0] = a[0] + T(0.02);
  }
};
/// Reads two cell dats through e2c: an overlapped run begins two exchanges.
struct SumQAcc {
  template <class T>
  void operator()(const T* ql, const T* qr, const T* al, const T* ar, T* w) const {
    w[0] = ql[0] + qr[0] + al[0] + ar[0];
  }
};

/// Dirties q and acc, then runs the two-dat overlapped loop; its first run
/// is expected to throw when `first_fails`. Returns the loop's output.
aligned_vector<double> two_dat_pipeline(Universe& u, bool first_fails) {
  dist::Loop bump(u.ctx, BumpQAcc{}, "fx_bump", u.cells, u.ctx.arg<opv::RW>(u.q),
                  u.ctx.arg<opv::RW>(u.acc));
  dist::Loop sum(u.ctx, SumQAcc{}, "fx_sum", u.edges, u.ctx.arg<opv::READ>(u.q, 0, u.e2c),
                 u.ctx.arg<opv::READ>(u.q, 1, u.e2c), u.ctx.arg<opv::READ>(u.acc, 0, u.e2c),
                 u.ctx.arg<opv::READ>(u.acc, 1, u.e2c), u.ctx.arg<opv::WRITE>(u.w));
  EXPECT_EQ(sum.effective_mode(), ExchangeMode::Overlap);
  bump.run();
  if (first_fails) {
    EXPECT_THROW(sum.run(), Error);
  }
  EXPECT_NO_THROW(sum.run()) << "a failed run must not leave an exchange in flight";
  aligned_vector<double> w;
  u.ctx.fetch(u.w, w);
  return w;
}

/// The second begin() of the first run (acc's) throws while q's exchange is
/// already in flight: the failed run must still complete q's exchange.
TEST(DistLoopPhases, FailedBeginCompletesExchangesAlreadyBegun) {
  const ExecConfig cfg{.backend = Backend::Seq, .nthreads = 1};
  Universe clean(2, cfg), faulty(2, cfg);
  clean.ctx.set_exchanger(std::make_unique<StagedExchanger>());
  faulty.ctx.set_exchanger(std::make_unique<FaultyExchanger>(
      std::make_unique<StagedExchanger>(),
      ExchangeFaultPlan{.kind = ExchangeFaultKind::Throw, .at_begin = 2}));
  EXPECT_EQ(two_dat_pipeline(faulty, true), two_dat_pipeline(clean, false));
}

/// Forwards to a StagedExchanger; the first wait() reports a failure after
/// the transfer completed.
struct FailFirstWait final : Exchanger {
  StagedExchanger inner;
  int begins = 0, waits = 0;
  std::int64_t exchange(const Partitioned& part, const DatHaloView& view) override {
    return inner.exchange(part, view);
  }
  void begin(const Partitioned& part, const DatHaloView& view) override {
    ++begins;
    inner.begin(part, view);
  }
  std::int64_t wait(const Partitioned& part, const DatHaloView& view) override {
    const std::int64_t n = inner.wait(part, view);
    if (++waits == 1) throw Error("injected wait failure");
    return n;
  }
  [[nodiscard]] const char* name() const override { return "fail-first-wait"; }
};

TEST(DistLoopPhases, FailedWaitStillWaitsForEveryPendingDat) {
  const ExecConfig cfg{.backend = Backend::Seq, .nthreads = 1};
  Universe clean(2, cfg), faulty(2, cfg);
  clean.ctx.set_exchanger(std::make_unique<StagedExchanger>());
  auto flaky = std::make_unique<FailFirstWait>();
  FailFirstWait* f = flaky.get();
  faulty.ctx.set_exchanger(std::move(flaky));
  EXPECT_EQ(two_dat_pipeline(faulty, true), two_dat_pipeline(clean, false));
  EXPECT_EQ(f->waits, f->begins) << "every begin() must be matched by one wait()";
  EXPECT_EQ(f->begins, 3) << "only the dat whose wait failed stays dirty";
}

/// Counts the halo exchanges each dat completes (blocking exchanges and
/// successful waits) and fails the first wait(), after its transfer.
struct CountFailFirstWait final : Exchanger {
  MemcpyExchanger inner;
  int waits = 0;
  std::map<int, int> completed;  ///< dat id -> exchanges completed
  std::int64_t exchange(const Partitioned& part, const DatHaloView& view) override {
    ++completed[view.dat];
    return inner.exchange(part, view);
  }
  std::int64_t wait(const Partitioned& part, const DatHaloView& view) override {
    const std::int64_t n = inner.exchange(part, view);
    if (++waits == 1) throw Error("injected wait failure");
    ++completed[view.dat];
    return n;
  }
  [[nodiscard]] const char* name() const override { return "count-fail-first-wait"; }
};

/// The interior of an INC loop has already written owned values when its
/// halo wait fails, so the written dat's halo copies are stale: the failed
/// run must leave it dirty, and the next loop reading it through a map
/// must exchange it.
TEST(DistLoopPhases, FailedWaitLeavesWrittenDatsDirty) {
  Universe u(3, ExecConfig{.backend = Backend::Seq, .nthreads = 1});
  auto flaky = std::make_unique<CountFailFirstWait>();
  CountFailFirstWait* x = flaky.get();
  u.ctx.set_exchanger(std::move(flaky));

  dist::Loop bump(u.ctx, BumpQ{}, "fw_bump", u.cells, u.ctx.arg<opv::RW>(u.q),
                  u.ctx.arg<opv::READ>(u.acc));
  dist::Loop edge(u.ctx, GatherQ{}, "fw_edge", u.edges, u.ctx.arg<opv::READ>(u.q, 0, u.e2c),
                  u.ctx.arg<opv::READ>(u.q, 1, u.e2c), u.ctx.arg<opv::INC>(u.acc, 0, u.e2c),
                  u.ctx.arg<opv::INC>(u.acc, 1, u.e2c));
  dist::Loop read_acc(u.ctx, SumQAcc{}, "fw_read", u.edges, u.ctx.arg<opv::READ>(u.q, 0, u.e2c),
                      u.ctx.arg<opv::READ>(u.q, 1, u.e2c),
                      u.ctx.arg<opv::READ>(u.acc, 0, u.e2c),
                      u.ctx.arg<opv::READ>(u.acc, 1, u.e2c), u.ctx.arg<opv::WRITE>(u.w));
  ASSERT_EQ(edge.effective_mode(), ExchangeMode::Overlap);

  bump.run();  // dirties q, so edge begins (and fails to wait for) q
  EXPECT_THROW(edge.run(), Error);
  EXPECT_EQ(x->completed[u.acc.id], 0);
  read_acc.run();
  EXPECT_EQ(x->completed[u.acc.id], 1)
      << "the INC target written before the failed wait must be exchanged";
  EXPECT_EQ(x->completed[u.q.id], 1) << "the dat whose wait failed stays dirty too";
}

// ---- phased execution: exchange accounting ----------------------------------

TEST(DistLoopPhases, RecordsExchangeTimeAndValues) {
  StatsRegistry::instance().clear();
  Universe u(3, ExecConfig{.backend = Backend::Seq, .nthreads = 1});
  dist::Loop edge(u.ctx, GatherQ{}, "xch_edge", u.edges, u.ctx.arg<opv::READ>(u.q, 0, u.e2c),
                  u.ctx.arg<opv::READ>(u.q, 1, u.e2c), u.ctx.arg<opv::INC>(u.acc, 0, u.e2c),
                  u.ctx.arg<opv::INC>(u.acc, 1, u.e2c));
  dist::Loop cell(u.ctx, BumpQ{}, "xch_cell", u.cells, u.ctx.arg<opv::RW>(u.q),
                  u.ctx.arg<opv::READ>(u.acc));
  for (int it = 0; it < 3; ++it) {
    cell.run();
    edge.run();
  }
  const LoopRecord rec = StatsRegistry::instance().get("xch_edge");
  EXPECT_GT(rec.exchanged_values, 0) << "halo traffic must accumulate in the loop's record";
  EXPECT_GT(rec.exchange_seconds, 0.0);
  EXPECT_EQ(rec.exchanged_values, StatsRegistry::instance().get("xch_edge/halo").elements)
      << "the legacy /halo slot and the in-record accounting must agree";

  const std::string table =
      perf::loop_stats_table(StatsRegistry::instance().all()).to_string();
  EXPECT_NE(table.find("exch (s)"), std::string::npos)
      << "the stats table must grow an exchange column when exchange data exists";
  EXPECT_NE(table.find("xch_edge"), std::string::npos);
}

// ---- make_loop: the context-concept handle factory --------------------------

TEST(DistLoop, MakeLoopReturnsRunnableHandle) {
  Universe u(3, ExecConfig{.backend = Backend::Seq, .nthreads = 1});
  auto edge = u.ctx.make_loop(GatherQ{}, "mk_edge", u.edges, u.ctx.arg<opv::READ>(u.q, 0, u.e2c),
                              u.ctx.arg<opv::READ>(u.q, 1, u.e2c),
                              u.ctx.arg<opv::INC>(u.acc, 0, u.e2c),
                              u.ctx.arg<opv::INC>(u.acc, 1, u.e2c));
  edge.run();
  edge.run();
  EXPECT_EQ(edge.nranks(), 3);
  EXPECT_TRUE(edge.exchange_plan().can_overlap);
}

// ---- construction-time validation -------------------------------------------

TEST(DistLoop, ValidatesArgsAgainstIterationSet) {
  Universe u(2, ExecConfig{.backend = Backend::Seq, .nthreads = 1});
  // Direct dat on the wrong set: q lives on cells, loop iterates edges.
  EXPECT_THROW(dist::Loop(u.ctx, BumpQ{}, "bad_direct", u.edges, u.ctx.arg<opv::RW>(u.q),
                          u.ctx.arg<opv::READ>(u.acc)),
               Error);
  // Indirect arg through a map that is not FROM the iteration set.
  EXPECT_THROW(dist::Loop(u.ctx, GatherQ{}, "bad_map", u.cells,
                          u.ctx.arg<opv::READ>(u.q, 0, u.e2c),
                          u.ctx.arg<opv::READ>(u.q, 1, u.e2c),
                          u.ctx.arg<opv::INC>(u.acc, 0, u.e2c),
                          u.ctx.arg<opv::INC>(u.acc, 1, u.e2c)),
               Error);
}

}  // namespace
