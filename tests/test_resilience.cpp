// The resilience layer end to end: CRC32 + checkpoint containers
// (core/snapshot.hpp), layout/renumber-independent context snapshots
// (LocalCtx::snapshot/restore), finiteness guards (core/guard.hpp), the
// recovery scheduler (HealthPolicy retry/backoff/degrade in
// serve/ensemble.cpp), deterministic fault injection at both seams
// (serve/fault.hpp instances, dist/fault.hpp halo transport), the OPVK
// checkpoint file with its corruption corpus, and the kill-and-resume
// workflow gated bitwise for two apps (Volna hazard, Tet3D).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "apps/tet3d/tet3d_instance.hpp"
#include "apps/volna/hazard.hpp"
#include "common/crc32.hpp"
#include "common/worker_pool.hpp"
#include "core/guard.hpp"
#include "core/snapshot.hpp"
#include "dist/context.hpp"
#include "dist/fault.hpp"
#include "mesh/generators.hpp"
#include "mesh/io.hpp"
#include "serve/ensemble.hpp"
#include "serve/fault.hpp"

using namespace opv;
using namespace opv::serve;

namespace {

std::string tmp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

ExecConfig seq_cfg() {
  ExecConfig cfg;
  cfg.backend = Backend::Seq;
  cfg.nthreads = 1;
  return cfg;
}

template <class T>
void expect_bitwise(const aligned_vector<T>& a, const aligned_vector<T>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0) << what;
}

/// A tiny Checkpointable whose whole state is one counter — the scheduler-
/// behavior probe (recovery bookkeeping without app noise). Optionally
/// throws on every step until degrade() is called.
class ToyCounter final : public Checkpointable {
 public:
  explicit ToyCounter(bool throw_until_degraded = false)
      : throw_until_degraded_(throw_until_degraded) {}

  void step() override {
    if (throw_until_degraded_ && !degraded_) throw opv::Error("toy: refusing until degraded");
    ++value_;
  }
  [[nodiscard]] Checkpoint checkpoint() override {
    Checkpoint c;
    ByteWriter w;
    w.put<std::int64_t>(value_);
    c.add("toy/value", w.take());
    return c;
  }
  void restore(const Checkpoint& c) override {
    const auto* s = c.find("toy/value");
    OPV_REQUIRE(s != nullptr, "ToyCounter: missing toy/value section");
    ByteReader r(s->bytes, "toy/value");
    value_ = r.get<std::int64_t>();
  }
  void degrade(int) override { degraded_ = true; }

  [[nodiscard]] std::int64_t value() const { return value_; }
  [[nodiscard]] bool degraded() const { return degraded_; }

 private:
  std::int64_t value_ = 0;
  bool throw_until_degraded_ = false;
  bool degraded_ = false;
};

InstanceFactory toy_factory(bool throw_until_degraded = false) {
  return [throw_until_degraded](int) -> std::unique_ptr<Instance> {
    return std::make_unique<ToyCounter>(throw_until_degraded);
  };
}

// with_fault(..., fault_id) only wraps the targeted instance; the rest come
// straight from the inner factory. Reach the app either way.
template <class T>
T& unwrap(Instance& inst) {
  if (auto* f = dynamic_cast<FaultyInstance*>(&inst)) return dynamic_cast<T&>(f->inner());
  return dynamic_cast<T&>(inst);
}

}  // namespace

// ===== CRC32 + byte plumbing ================================================

TEST(Crc32, MatchesKnownVector) {
  const char* msg = "123456789";
  EXPECT_EQ(crc32(msg, 9), 0xCBF43926u);  // the canonical CRC-32 check value
  EXPECT_EQ(crc32(msg, 0), 0u);
}

TEST(Crc32, ChainsIncrementally) {
  const char* msg = "123456789";
  const std::uint32_t whole = crc32(msg, 9);
  const std::uint32_t part = crc32(msg + 4, 5, crc32(msg, 4));
  EXPECT_EQ(whole, part);
}

TEST(ByteReader, ThrowsNamedTruncation) {
  std::vector<unsigned char> bytes(4, 0);
  ByteReader r(bytes, "probe");
  (void)r.get<std::uint32_t>();
  try {
    (void)r.get<std::uint32_t>();
    FAIL() << "expected opv::Error";
  } catch (const opv::Error& e) {
    EXPECT_NE(std::string(e.what()).find("probe"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("offset 4"), std::string::npos);
  }
}

// ===== context snapshot/restore =============================================

namespace {

/// Declares the same tiny mesh-shaped context under a given config: cells +
/// edges, a 2-ary map (renumbering seed), and three dats with distinct
/// shapes and value types.
struct SnapCtx {
  LocalCtx ctx;
  LocalCtx::FixedDatHandle<float, 4> cdat{};
  LocalCtx::FixedDatHandle<double, 1> edat{};
  LocalCtx::FixedDatHandle<std::int32_t, 1> idat{};
  aligned_vector<float> cv;
  aligned_vector<double> ev;
  aligned_vector<std::int32_t> iv;

  explicit SnapCtx(const ExecConfig& cfg, bool renumber, Layout layout) : ctx(cfg) {
    const auto m = mesh::make_quad_box(6, 5);
    ctx.set_renumber(renumber);
    ctx.set_default_layout(layout);
    auto cells = ctx.decl_set("cells", m.ncells);
    auto edges = ctx.decl_set("edges", m.nedges);
    aligned_vector<double> coords(static_cast<std::size_t>(m.ncells) * 2);
    for (std::size_t i = 0; i < coords.size(); ++i) coords[i] = static_cast<double>(i % 13);
    ctx.set_partition_coords(cells, coords.data());
    ctx.decl_map("pecell", edges, cells, 2, m.edge_cells);
    cv.resize(static_cast<std::size_t>(m.ncells) * 4);
    for (std::size_t i = 0; i < cv.size(); ++i) cv[i] = 0.5f + static_cast<float>(i);
    ev.resize(static_cast<std::size_t>(m.nedges));
    for (std::size_t i = 0; i < ev.size(); ++i) ev[i] = 1.25 * static_cast<double>(i) - 7.0;
    iv.resize(static_cast<std::size_t>(m.nedges));
    for (std::size_t i = 0; i < iv.size(); ++i) iv[i] = static_cast<std::int32_t>(3 * i + 1);
    cdat = ctx.decl_dat<float, 4>("cdat", cells, cv);
    edat = ctx.decl_dat<double, 1>("edat", edges, ev);
    idat = ctx.decl_dat<std::int32_t, 1>("idat", edges, iv);
    ctx.finalize();
  }
};

}  // namespace

TEST(Snapshot, RoundTripsAndPoisonIsUndone) {
  SnapCtx s(seq_cfg(), /*renumber=*/false, Layout::AoS);
  Checkpoint good;
  s.ctx.snapshot(good);
  ASSERT_EQ(good.sections.size(), 3u);
  EXPECT_EQ(good.sections[0].name, "dat/000/cdat");

  // Poison one value through the section-level hook, restore, observe the
  // NaN land in the right dat — then restore the good checkpoint and get
  // the original bytes back bitwise.
  Checkpoint bad = good;
  ASSERT_TRUE(poison_dat_section(bad, "cdat", 7));
  s.ctx.restore(bad);
  aligned_vector<float> cout;
  s.ctx.fetch(s.cdat, cout);
  EXPECT_TRUE(std::isnan(cout[7]));
  EXPECT_FALSE(guard::check_finite(*s.cdat));

  s.ctx.restore(good);
  s.ctx.fetch(s.cdat, cout);
  expect_bitwise(s.cv, cout, "cdat after restore");
  EXPECT_TRUE(guard::check_finite(*s.cdat));

  // The hook refuses out-of-range indices and unknown names.
  EXPECT_THROW(poison_dat_section(bad, "cdat", s.cv.size()), opv::Error);
  EXPECT_FALSE(poison_dat_section(bad, "no_such_dat", 0));
}

TEST(Snapshot, IsLayoutAndRenumberIndependent) {
  // Snapshot a renumbered SoA context, restore into an untouched AoS one
  // (and the reverse): fetch() must return identical declaration-order
  // values either way — the canonical-bytes contract that makes OPVK files
  // portable across execution configs.
  SnapCtx plain(seq_cfg(), /*renumber=*/false, Layout::AoS);
  ExecConfig vec = seq_cfg();
  vec.backend = Backend::AutoVec;
  SnapCtx fancy(vec, /*renumber=*/true, Layout::SoA);

  Checkpoint from_fancy;
  fancy.ctx.snapshot(from_fancy);
  plain.ctx.restore(from_fancy);
  aligned_vector<float> cout;
  aligned_vector<double> eout;
  aligned_vector<std::int32_t> iout;
  plain.ctx.fetch(plain.cdat, cout);
  plain.ctx.fetch(plain.edat, eout);
  plain.ctx.fetch(plain.idat, iout);
  expect_bitwise(plain.cv, cout, "cdat via SoA+renumber snapshot");
  expect_bitwise(plain.ev, eout, "edat via SoA+renumber snapshot");
  expect_bitwise(plain.iv, iout, "idat via SoA+renumber snapshot");

  Checkpoint from_plain;
  plain.ctx.snapshot(from_plain);
  fancy.ctx.restore(from_plain);
  fancy.ctx.fetch(fancy.cdat, cout);
  expect_bitwise(fancy.cv, cout, "cdat restored into SoA+renumber ctx");
}

TEST(Snapshot, RestoreRejectsShapeMismatch) {
  SnapCtx s(seq_cfg(), false, Layout::AoS);
  Checkpoint c;
  s.ctx.snapshot(c);
  // Truncate one section's payload: restore must throw, not misread.
  c.sections[1].bytes.resize(c.sections[1].bytes.size() - 8);
  EXPECT_THROW(s.ctx.restore(c), opv::Error);
  Checkpoint empty;
  EXPECT_THROW(s.ctx.restore(empty), opv::Error);
}

// ===== finiteness guard ======================================================

TEST(Guard, ScansFloatAndDoubleIncludingChunkTails) {
  // 4096-value chunks: plant the bad value past the first chunk boundary to
  // cover the tail path, and at position 0 to cover the head.
  for (const std::size_t at : {std::size_t{0}, std::size_t{4100}}) {
    std::vector<float> f(5000, 1.5f);
    EXPECT_TRUE(guard::all_finite(f.data(), f.size()));
    f[at] = std::numeric_limits<float>::quiet_NaN();
    EXPECT_FALSE(guard::all_finite(f.data(), f.size()));
    EXPECT_EQ(guard::first_nonfinite(f.data(), f.size()), static_cast<std::ptrdiff_t>(at));
    f[at] = -std::numeric_limits<float>::infinity();
    EXPECT_FALSE(guard::all_finite(f.data(), f.size()));

    std::vector<double> d(5000, -2.25);
    d[at] = std::numeric_limits<double>::infinity();
    EXPECT_FALSE(guard::all_finite(d.data(), d.size()));
  }
  // Denormals and large-but-finite values are healthy.
  std::vector<double> ok = {std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::max(), -0.0, 1e308};
  EXPECT_TRUE(guard::all_finite(ok.data(), ok.size()));
  EXPECT_EQ(guard::first_nonfinite(ok.data(), ok.size()), -1);
}

// ===== WorkQueue priority lane ==============================================

TEST(WorkQueue, UrgentLaneRunsAheadOfFreshWork) {
  WorkQueue q;
  q.push(1);
  q.push(2);
  q.requeue_front(9);
  auto got = q.acquire();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 9);
  q.release(*got, false);
  got = q.acquire();
  EXPECT_EQ(*got, 1);
  q.release(*got, false);
  q.close();
}

TEST(WorkQueue, BurstLimitPreventsNormalLaneStarvation) {
  // After kBurst (4) consecutive urgent grabs a normal id must be served
  // even though urgent work is still pending.
  static_assert(WorkQueue::kBurst == 4);
  WorkQueue q;
  q.push(7);
  for (int id = 1; id <= 5; ++id) q.requeue_front(id);
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    auto got = q.acquire();
    ASSERT_TRUE(got.has_value());
    order.push_back(*got);
    q.release(*got, false);
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 7, 5}));
  EXPECT_EQ(q.pending(), 0u);
}

TEST(WorkQueue, ReleaseFrontReentersUrgent) {
  WorkQueue q;
  q.push(1);
  q.push(2);
  auto got = q.acquire();  // 1
  ASSERT_TRUE(got.has_value());
  q.release(*got, /*requeue=*/true, /*front=*/true);
  got = q.acquire();
  EXPECT_EQ(*got, 1);  // retried work beats the still-queued 2
  q.release(*got, false);
  got = q.acquire();
  EXPECT_EQ(*got, 2);
  q.release(*got, false);
}

// ===== recovery scheduling ===================================================

TEST(Resilience, RecoversToyFromInjectedThrow) {
  EnsembleOptions opts;
  opts.name = "resil_toy";
  opts.workers = 2;
  opts.health.checkpoint_every = 3;
  opts.health.retry.max_attempts = 2;
  Ensemble ens(opts);
  InstanceFaultPlan plan;
  plan.kind = InstanceFaultKind::Throw;
  plan.at_step = 5;
  ens.add_instances(3, with_fault(toy_factory(), plan, /*fault_id=*/1));
  const auto rep = ens.run(10);
  EXPECT_EQ(rep.failed, 0);
  EXPECT_EQ(rep.completed, 3);
  EXPECT_GE(rep.retries, 1);
  EXPECT_GE(rep.restores, 1);
  EXPECT_GE(rep.checkpoints, 3);
  // Net progress is exact despite the replay.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(unwrap<ToyCounter>(ens.instance(i)).value(), 10);
    EXPECT_EQ(ens.steps_done(i), 10);
  }
  // Only the targeted instance carries the fault decorator.
  EXPECT_EQ(dynamic_cast<FaultyInstance*>(&ens.instance(0)), nullptr);
  ASSERT_NE(dynamic_cast<FaultyInstance*>(&ens.instance(1)), nullptr);
  const auto& ir = rep.instances[1];
  EXPECT_GE(ir.attempts, 1);
  EXPECT_GE(ir.restores, 1);
  EXPECT_EQ(ir.steps_done, 10);
}

TEST(Resilience, StallTriggersDeadlineRetry) {
  EnsembleOptions opts;
  opts.name = "resil_deadline";
  opts.workers = 1;
  opts.health.checkpoint_every = 2;
  opts.health.step_deadline_seconds = 0.01;
  opts.health.retry.max_attempts = 2;
  Ensemble ens(opts);
  InstanceFaultPlan plan;
  plan.kind = InstanceFaultKind::Stall;
  plan.at_step = 3;
  plan.stall_seconds = 0.05;
  ens.add_instance(with_fault(toy_factory(), plan));
  const auto rep = ens.run(6);
  EXPECT_EQ(rep.failed, 0);
  EXPECT_EQ(rep.completed, 1);
  EXPECT_GE(rep.retries, 1);
  EXPECT_NE(rep.instances[0].error, "FAIL");  // error stays empty on recovery
  EXPECT_TRUE(rep.instances[0].error.empty());
  auto* f = dynamic_cast<FaultyInstance*>(&ens.instance(0));
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(dynamic_cast<ToyCounter&>(f->inner()).value(), 6);
}

TEST(Resilience, DegradeHookFiresAfterConfiguredAttempts) {
  EnsembleOptions opts;
  opts.name = "resil_degrade";
  opts.workers = 1;
  opts.health.checkpoint_every = 1;
  opts.health.retry.max_attempts = 3;
  opts.health.degrade_after = 1;
  Ensemble ens(opts);
  ens.add_instance(toy_factory(/*throw_until_degraded=*/true));
  const auto rep = ens.run(4);
  EXPECT_EQ(rep.failed, 0);
  EXPECT_EQ(rep.completed, 1);
  EXPECT_GE(rep.degraded, 1);
  EXPECT_TRUE(dynamic_cast<ToyCounter&>(ens.instance(0)).degraded());
  EXPECT_EQ(dynamic_cast<ToyCounter&>(ens.instance(0)).value(), 4);
}

TEST(Resilience, RetiresAfterMaxAttempts) {
  EnsembleOptions opts;
  opts.name = "resil_retire";
  opts.workers = 1;
  opts.health.checkpoint_every = 1;
  opts.health.retry.max_attempts = 2;
  Ensemble ens(opts);
  InstanceFaultPlan plan;
  plan.kind = InstanceFaultKind::Throw;
  plan.at_step = 1;
  plan.period = 1;  // every invocation fails: unrecoverable
  ens.add_instances(2, with_fault(toy_factory(), plan, /*fault_id=*/0));
  const auto rep = ens.run(5);
  EXPECT_EQ(rep.failed, 1);
  EXPECT_EQ(rep.completed, 1);  // the sibling is untouched
  EXPECT_NE(rep.instances[0].error.find("retired after 2 recovery attempts"),
            std::string::npos);
  EXPECT_TRUE(rep.instances[1].error.empty());
  EXPECT_EQ(rep.retries, 2);
}

TEST(Resilience, AddInstancesRollsBackOnThrowingFactory) {
  Ensemble ens;
  int built = 0;
  EXPECT_THROW(ens.add_instances(4,
                                 [&](int id) -> std::unique_ptr<Instance> {
                                   if (id == 2) throw opv::Error("factory blew up");
                                   ++built;
                                   return std::make_unique<ToyCounter>();
                                 }),
               opv::Error);
  EXPECT_EQ(built, 2);
  EXPECT_EQ(ens.size(), 0);  // no partially-added tail
  ens.add_instances(2, toy_factory());
  EXPECT_EQ(ens.size(), 2);
  EXPECT_EQ(ens.run(3).completed, 2);
}

// ===== app-level recovery: bitwise gates =====================================

TEST(Resilience, VolnaRecoveryIsBitwiseExact) {
  const auto m = mesh::make_tri_periodic(16, 16, 10.0, 10.0);
  const auto sweep = volna::hazard_sweep(2);
  const int steps = 12;

  serve::EnsembleOptions clean_opts;
  clean_opts.name = "volna_clean";
  clean_opts.workers = 2;
  Ensemble clean(clean_opts);
  clean.add_instances(2, volna::hazard_factory(m, sweep, seq_cfg()));
  ASSERT_EQ(clean.run(steps).failed, 0);

  serve::EnsembleOptions opts;
  opts.name = "volna_faulted";
  opts.workers = 2;
  opts.health.checkpoint_every = 4;
  opts.health.check_every = 1;
  opts.health.retry.max_attempts = 2;
  Ensemble faulted(opts);
  InstanceFaultPlan plan;
  plan.kind = InstanceFaultKind::Corrupt;
  plan.at_step = 6;
  plan.dat = "values";
  faulted.add_instances(2, with_fault(volna::hazard_factory(m, sweep, seq_cfg()), plan,
                                      /*fault_id=*/0));
  const auto rep = faulted.run(steps);
  EXPECT_EQ(rep.failed, 0);
  EXPECT_GE(rep.restores, 1);  // the NaN was detected and recovered from

  for (int i = 0; i < 2; ++i) {
    auto& rec = unwrap<volna::HazardInstance>(faulted.instance(i));
    auto& ref = dynamic_cast<volna::HazardInstance&>(clean.instance(i));
    expect_bitwise(ref.state(), rec.state(), "recovered vs clean state");
  }
}

// ===== OPVK file =============================================================

namespace {

EnsembleCheckpoint sample_checkpoint() {
  EnsembleCheckpoint c;
  c.target_steps = 40;
  EnsembleCheckpoint::InstanceState a;
  a.id = 0;
  a.steps_done = 17;
  ByteWriter w;
  for (int i = 0; i < 50; ++i) w.put<double>(0.125 * i);
  a.state.add("dat/000/u", w.take());
  a.state.add("globals/x", {1, 2, 3, 4, 5});
  EnsembleCheckpoint::InstanceState b;
  b.id = 1;
  b.steps_done = 9;
  b.error = "instance blew up";
  c.instances.push_back(std::move(a));
  c.instances.push_back(std::move(b));
  return c;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void expect_read_error(const std::string& path, const char* needle) {
  try {
    (void)mesh::read_checkpoint(path);
    FAIL() << "expected opv::Error mentioning '" << needle << "'";
  } catch (const opv::Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos)
        << "error must name a byte offset: " << e.what();
  }
}

}  // namespace

TEST(Opvk, FileRoundTripsExactly) {
  const std::string path = tmp_path("opv_chk_roundtrip.opvk");
  const auto c = sample_checkpoint();
  mesh::write_checkpoint(c, path);
  const auto r = mesh::read_checkpoint(path);
  EXPECT_EQ(r.version, EnsembleCheckpoint::kVersion);
  EXPECT_EQ(r.target_steps, 40);
  ASSERT_EQ(r.instances.size(), 2u);
  EXPECT_EQ(r.instances[0].id, 0);
  EXPECT_EQ(r.instances[0].steps_done, 17);
  EXPECT_TRUE(r.instances[0].error.empty());
  ASSERT_EQ(r.instances[0].state.sections.size(), 2u);
  EXPECT_EQ(r.instances[0].state.sections[0].name, "dat/000/u");
  EXPECT_EQ(r.instances[0].state.sections[0].bytes, c.instances[0].state.sections[0].bytes);
  EXPECT_EQ(r.instances[0].state.sections[1].bytes, c.instances[0].state.sections[1].bytes);
  EXPECT_EQ(r.instances[1].error, "instance blew up");
  EXPECT_TRUE(r.instances[1].state.sections.empty());
  std::remove(path.c_str());
}

TEST(Opvk, CorruptionCorpusFailsLoudly) {
  const std::string good_path = tmp_path("opv_chk_good.opvk");
  mesh::write_checkpoint(sample_checkpoint(), good_path);
  const std::string good = slurp(good_path);
  const std::string path = tmp_path("opv_chk_bad.opvk");

  // Bad magic.
  std::string bad = good;
  bad[0] = 'X';
  spit(path, bad);
  expect_read_error(path, "bad magic");

  // Unsupported version (the field after the 8-byte magic).
  bad = good;
  bad[8] = char(0x7f);
  spit(path, bad);
  try {
    (void)mesh::read_checkpoint(path);
    FAIL() << "expected version error";
  } catch (const opv::Error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported OPVK version"), std::string::npos);
  }

  // Truncation at several depths: header, mid-payload, missing CRC.
  for (const std::size_t keep : {std::size_t{10}, good.size() / 2, good.size() - 2}) {
    spit(path, good.substr(0, keep));
    expect_read_error(path, "");
  }

  // A flipped payload bit: CRC catches it and names the section.
  bad = good;
  bad[good.size() / 2] = static_cast<char>(bad[good.size() / 2] ^ 0x10);
  spit(path, bad);
  expect_read_error(path, "CRC mismatch");

  // Trailing garbage after the last section.
  bad = good + "extra";
  spit(path, bad);
  expect_read_error(path, "trailing bytes");

  std::remove(good_path.c_str());
  std::remove(path.c_str());
}

// ===== kill-and-resume ======================================================

TEST(KillResume, VolnaSweepResumesBitwise) {
  const auto m = mesh::make_tri_periodic(16, 16, 10.0, 10.0);
  const auto sweep = volna::hazard_sweep(2);
  const int total = 14, killed_at = 6;
  const std::string path = tmp_path("opv_volna_resume.opvk");

  // Uninterrupted reference (no policy at all).
  serve::EnsembleOptions ref_opts;
  ref_opts.name = "volna_ref";
  ref_opts.workers = 2;
  Ensemble ref(ref_opts);
  ref.add_instances(2, volna::hazard_factory(m, sweep, seq_cfg()));
  ASSERT_EQ(ref.run(total).failed, 0);

  // First process: run part of the sweep, persist, "die".
  {
    serve::EnsembleOptions opts;
    opts.name = "volna_killed";
    opts.workers = 2;
    opts.health.checkpoint_every = 4;
    opts.health.retry.max_attempts = 1;
    Ensemble killed(opts);
    killed.add_instances(2, volna::hazard_factory(m, sweep, seq_cfg()));
    ASSERT_EQ(killed.run(killed_at).failed, 0);
    mesh::write_checkpoint(killed.save(total), path);
  }

  // Second process: fresh instances, restore, finish to the saved target.
  serve::EnsembleOptions opts;
  opts.name = "volna_resumed";
  opts.workers = 2;
  opts.health.checkpoint_every = 4;
  opts.health.retry.max_attempts = 1;
  Ensemble resumed(opts);
  resumed.add_instances(2, volna::hazard_factory(m, sweep, seq_cfg()));
  const auto chk = mesh::read_checkpoint(path);
  EXPECT_EQ(chk.target_steps, total);
  resumed.restore(chk);
  EXPECT_EQ(resumed.steps_done(0), killed_at);
  const auto rep = resumed.run_to(total);
  EXPECT_EQ(rep.failed, 0);
  EXPECT_EQ(rep.steps, 2 * (total - killed_at));

  for (int i = 0; i < 2; ++i)
    expect_bitwise(dynamic_cast<volna::HazardInstance&>(ref.instance(i)).state(),
                   dynamic_cast<volna::HazardInstance&>(resumed.instance(i)).state(),
                   "resumed vs uninterrupted volna state");
  std::remove(path.c_str());
}

TEST(KillResume, Tet3DSweepResumesBitwise) {
  const auto m = mesh::make_tet_box(4, 4, 4);
  const int total = 8, killed_at = 3;
  const std::string path = tmp_path("opv_tet3d_resume.opvk");

  serve::EnsembleOptions ref_opts;
  ref_opts.name = "tet3d_ref";
  ref_opts.workers = 2;
  Ensemble ref(ref_opts);
  ref.add_instances(2, tet3d::tet3d_instance_factory(m, seq_cfg()));
  ASSERT_EQ(ref.run(total).failed, 0);

  {
    serve::EnsembleOptions opts;
    opts.name = "tet3d_killed";
    opts.workers = 2;
    opts.health.checkpoint_every = 2;
    opts.health.retry.max_attempts = 1;
    Ensemble killed(opts);
    killed.add_instances(2, tet3d::tet3d_instance_factory(m, seq_cfg()));
    ASSERT_EQ(killed.run(killed_at).failed, 0);
    mesh::write_checkpoint(killed.save(total), path);
  }

  serve::EnsembleOptions opts;
  opts.name = "tet3d_resumed";
  opts.workers = 2;
  Ensemble resumed(opts);
  resumed.add_instances(2, tet3d::tet3d_instance_factory(m, seq_cfg()));
  resumed.restore(mesh::read_checkpoint(path));
  EXPECT_EQ(resumed.run_to(total).failed, 0);

  for (int i = 0; i < 2; ++i) {
    auto& a = dynamic_cast<tet3d::Tet3DInstance&>(ref.instance(i));
    auto& b = dynamic_cast<tet3d::Tet3DInstance&>(resumed.instance(i));
    expect_bitwise(a.state(), b.state(), "resumed vs uninterrupted tet3d state");
    EXPECT_EQ(a.last_rms(), b.last_rms());
  }
  std::remove(path.c_str());
}

// ===== halo-transport fault injection =======================================

namespace {

/// A 2-rank Tet3D under the rank simulator with a FaultyExchanger spliced
/// over the memcpy transport AFTER construction, so the counted begins are
/// the stepping-time halo refreshes of the evolving dats only.
struct DistUnderTest {
  dist::DistCtx ctx;
  tet3d::Tet3D<double, dist::DistCtx> app;
  dist::FaultyExchanger* faulty = nullptr;

  DistUnderTest(const mesh::TetMesh& m, const dist::ExchangeFaultPlan* plan)
      : ctx(2, seq_cfg()), app(ctx, m) {
    if (plan) {
      auto fx = std::make_unique<dist::FaultyExchanger>(
          std::make_unique<dist::MemcpyExchanger>(), *plan);
      faulty = fx.get();
      ctx.set_exchanger(std::move(fx));
    }
  }
};

}  // namespace

TEST(FaultyExchanger, ThrowSurfacesWithDatAndTransportContext) {
  const auto m = mesh::make_tet_box(3, 3, 3);
  dist::ExchangeFaultPlan plan;
  plan.kind = dist::ExchangeFaultKind::Throw;
  plan.at_begin = 1;
  DistUnderTest u(m, &plan);
  try {
    u.app.run(1);
    FAIL() << "expected the injected transport failure to surface";
  } catch (const opv::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("via transport 'faulty'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("halo"), std::string::npos) << msg;
    EXPECT_NE(msg.find("dat '"), std::string::npos) << msg;
  }
}

TEST(FaultyExchanger, DelayIsBitwiseHarmless) {
  const auto m = mesh::make_tet_box(3, 3, 3);
  DistUnderTest clean(m, nullptr);
  clean.app.run(3, 0);
  dist::ExchangeFaultPlan plan;
  plan.kind = dist::ExchangeFaultKind::Delay;
  plan.at_begin = 2;
  plan.delay_seconds = 0.002;
  DistUnderTest delayed(m, &plan);
  delayed.app.run(3, 0);
  EXPECT_GE(delayed.faulty->faults_fired(), 1);
  expect_bitwise(clean.app.fetch_u(), delayed.app.fetch_u(), "delayed vs clean");
}

TEST(FaultyExchanger, DropDivergesFromCleanRun) {
  const auto m = mesh::make_tet_box(3, 3, 3);
  DistUnderTest clean(m, nullptr);
  clean.app.run(4, 0);
  dist::ExchangeFaultPlan plan;
  plan.kind = dist::ExchangeFaultKind::Drop;
  plan.at_begin = 4;  // past the first step: the dropped halo is stale for sure
  DistUnderTest dropped(m, &plan);
  dropped.app.run(4, 0);
  EXPECT_GE(dropped.faulty->faults_fired(), 1);
  const auto a = clean.app.fetch_u();
  const auto b = dropped.app.fetch_u();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_NE(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << "a lost halo exchange must change the result";
}

TEST(FaultyExchanger, CorruptIsCaughtByTheFinitenessGuard) {
  const auto m = mesh::make_tet_box(3, 3, 3);
  dist::ExchangeFaultPlan plan;
  plan.kind = dist::ExchangeFaultKind::Corrupt;
  plan.at_begin = 1;
  plan.seed = 0x5eed;
  DistUnderTest u(m, &plan);
  u.app.run(3, 0);
  EXPECT_GE(u.faulty->faults_fired(), 1);
  const auto ustate = u.app.fetch_u();
  EXPECT_FALSE(guard::all_finite(ustate.data(), ustate.size()))
      << "the wire NaN must propagate into the state the guard scans";
}
