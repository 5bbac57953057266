// Airfoil application driver, templated over execution context (LocalCtx or
// dist::DistCtx) and precision. This is the code a user writes against the
// opvec API — equivalent to OP2's airfoil.cpp main program.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "apps/airfoil/airfoil_kernels.hpp"
#include "core/chain.hpp"
#include "core/op2.hpp"
#include "mesh/mesh.hpp"

namespace opv::airfoil {

/// Register the Table II KernelInfo entries (idempotent).
void register_kernel_info();

/// Convert mesh double-precision node coordinates to the app precision.
template <class Real>
aligned_vector<Real> to_real_vec(const aligned_vector<double>& in) {
  aligned_vector<Real> out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = static_cast<Real>(in[i]);
  return out;
}

/// Cell centroids (used as the partitioner's coordinates).
aligned_vector<double> cell_centroids(const mesh::UnstructuredMesh& m);

/// The Airfoil application: declares the mesh sets/maps/dats through the
/// context and runs the OP2 reference time loop
///   iter { save_soln; 2x { adt_calc; res_calc; bres_calc; update } }.
template <class Real, class Ctx>
class Airfoil {
 public:
  /// With chain=true the step executes through opv::LoopChain handles
  /// (cross-loop sparse tiling, core/chain.hpp) instead of loop-by-loop —
  /// supported on local contexts; distributed contexts ignore the flag and
  /// keep the loop-by-loop step.
  Airfoil(Ctx& ctx, const mesh::UnstructuredMesh& m, bool chain = false)
      : ctx_(ctx), ncells_(m.ncells), chain_(chain) {
    register_kernel_info();
    consts_ = Consts<Real>::standard();
    centroids_ = cell_centroids(m);

    nodes_ = ctx_.decl_set("nodes", m.nnodes);
    cells_ = ctx_.decl_set("cells", m.ncells);
    edges_ = ctx_.decl_set("edges", m.nedges);
    bedges_ = ctx_.decl_set("bedges", m.nbedges);
    ctx_.set_partition_coords(cells_, centroids_.data());

    pedge_ = ctx_.decl_map("pedge", edges_, nodes_, 2, m.edge_nodes);
    pecell_ = ctx_.decl_map("pecell", edges_, cells_, 2, m.edge_cells);
    pcell_ = ctx_.decl_map("pcell", cells_, nodes_, 4, m.cell_nodes);
    pbedge_ = ctx_.decl_map("pbedge", bedges_, nodes_, 2, m.bedge_nodes);
    pbecell_ = ctx_.decl_map("pbecell", bedges_, cells_, 1, m.bedge_cell);

    x_ = ctx_.template decl_dat<Real, 2>("x", nodes_, to_real_vec<Real>(m.node_xy));
    aligned_vector<Real> q0(static_cast<std::size_t>(m.ncells) * 4);
    for (idx_t c = 0; c < m.ncells; ++c)
      for (int n = 0; n < 4; ++n) q0[static_cast<std::size_t>(c) * 4 + n] = consts_.qinf[n];
    q_ = ctx_.template decl_dat<Real, 4>("q", cells_, q0);
    qold_ = ctx_.template decl_dat<Real, 4>("qold", cells_);
    adt_ = ctx_.template decl_dat<Real, 1>("adt", cells_);
    res_ = ctx_.template decl_dat<Real, 4>("res", cells_);
    bound_ = ctx_.template decl_dat<std::int32_t, 1>("bound", bedges_, m.bedge_bound);
    ctx_.finalize();
    build_loops();
  }

  // The step closure captures `this` (the rms reduction target).
  Airfoil(const Airfoil&) = delete;
  Airfoil& operator=(const Airfoil&) = delete;

  /// Run niter outer iterations; records sqrt(rms/ncells) every rms_every.
  /// Each iteration runs the persistent loop handles built at construction
  /// — no per-call argument prep, plan lookup or (distributed) halo-plan
  /// derivation (ROADMAP "driver migration to handles").
  void run(int niter, int rms_every = 100) {
    for (int iter = 1; iter <= niter; ++iter) {
      step_();
      last_rms_ = std::sqrt(static_cast<double>(rms_) / ncells_);
      if (rms_every > 0 && iter % rms_every == 0) rms_history_.push_back(last_rms_);
    }
  }

  /// Residual after the most recent iteration: sqrt(rms/ncells).
  [[nodiscard]] double last_rms() const { return last_rms_; }

  /// Residual history (one entry per rms_every iterations).
  [[nodiscard]] const std::vector<double>& rms_history() const { return rms_history_; }

  /// Fetch the state vector in global cell order (for verification).
  aligned_vector<Real> fetch_q() {
    aligned_vector<Real> out;
    ctx_.fetch(q_, out);
    return out;
  }
  aligned_vector<Real> fetch_res() {
    aligned_vector<Real> out;
    ctx_.fetch(res_, out);
    return out;
  }

  [[nodiscard]] idx_t ncells() const { return ncells_; }
  [[nodiscard]] const Consts<Real>& consts() const { return consts_; }

 private:
  Ctx& ctx_;
  idx_t ncells_;
  bool chain_ = false;
  Consts<Real> consts_;
  aligned_vector<double> centroids_;
  std::vector<double> rms_history_;
  double last_rms_ = 0.0;
  Real rms_ = Real(0);  ///< update's reduction target, bound into its handle

  typename Ctx::SetHandle nodes_{}, cells_{}, edges_{}, bedges_{};
  typename Ctx::MapHandle pedge_{}, pecell_{}, pcell_{}, pbedge_{}, pbecell_{};
  typename Ctx::template FixedDatHandle<Real, 2> x_{};
  typename Ctx::template FixedDatHandle<Real, 4> q_{}, qold_{}, res_{};
  typename Ctx::template FixedDatHandle<Real, 1> adt_{};
  typename Ctx::template FixedDatHandle<std::int32_t, 1> bound_{};

  /// One persistent handle per kernel call site. Every dat is declared with
  /// its compile-time arity (decl_dat<T, N>, FixedDat handles), so each
  /// ctx.arg<mode>(...) carries the arity from the handle's type and the
  /// engine's gather/scatter paths fully unroll per argument at
  /// instantiation time (docs/API.md, "compile-time Dim") — with nothing to
  /// spell, and nothing to get wrong, at the loop sites.
  auto make_loops() {
    return std::make_tuple(
        ctx_.make_loop(SaveSoln<Real>{}, "save_soln", cells_,
                       ctx_.template arg<opv::READ>(q_),
                       ctx_.template arg<opv::WRITE>(qold_)),
        ctx_.make_loop(AdtCalc<Real>{consts_}, "adt_calc", cells_,
                       ctx_.template arg<opv::READ>(x_, 0, pcell_),
                       ctx_.template arg<opv::READ>(x_, 1, pcell_),
                       ctx_.template arg<opv::READ>(x_, 2, pcell_),
                       ctx_.template arg<opv::READ>(x_, 3, pcell_),
                       ctx_.template arg<opv::READ>(q_),
                       ctx_.template arg<opv::WRITE>(adt_)),
        ctx_.make_loop(ResCalc<Real>{consts_}, "res_calc", edges_,
                       ctx_.template arg<opv::READ>(x_, 0, pedge_),
                       ctx_.template arg<opv::READ>(x_, 1, pedge_),
                       ctx_.template arg<opv::READ>(q_, 0, pecell_),
                       ctx_.template arg<opv::READ>(q_, 1, pecell_),
                       ctx_.template arg<opv::READ>(adt_, 0, pecell_),
                       ctx_.template arg<opv::READ>(adt_, 1, pecell_),
                       ctx_.template arg<opv::INC>(res_, 0, pecell_),
                       ctx_.template arg<opv::INC>(res_, 1, pecell_)),
        ctx_.make_loop(BresCalc<Real>{consts_}, "bres_calc", bedges_,
                       ctx_.template arg<opv::READ>(x_, 0, pbedge_),
                       ctx_.template arg<opv::READ>(x_, 1, pbedge_),
                       ctx_.template arg<opv::READ>(q_, 0, pbecell_),
                       ctx_.template arg<opv::READ>(adt_, 0, pbecell_),
                       ctx_.template arg<opv::INC>(res_, 0, pbecell_),
                       ctx_.template arg<opv::READ>(bound_)),
        ctx_.make_loop(Update<Real>{}, "update", cells_,
                       ctx_.template arg<opv::READ>(qold_),
                       ctx_.template arg<opv::WRITE>(q_),
                       ctx_.template arg<opv::RW>(res_),
                       ctx_.template arg<opv::READ>(adt_),
                       ctx_.template arg_gbl<opv::INC>(&rms_, 1)));
  }

  /// Pin the handles in a type-erased per-iteration step so the driver
  /// never has to spell the handle types (they depend on the context).
  ///
  /// Chain mode fuses each RK sub-iteration into one LoopChain (the rms_
  /// reset moves to the chain boundary — legal because the INC reduction
  /// only adds into the target, and nothing else reads rms_ mid-chain):
  ///   k=0: rms_=0; [save_soln adt_calc res_calc bres_calc update]
  ///   k=1: rms_=0; [          adt_calc res_calc bres_calc update]
  void build_loops() {
    auto loops = std::make_shared<decltype(make_loops())>(make_loops());
    // Local handles are opv::Loops and join a chain as they are.
    if constexpr (requires(LoopChain& c) { c.add(std::get<0>(*loops)); }) {
      if (chain_) {
        auto& [save, adt, res, bres, upd] = *loops;
        auto first = std::make_shared<LoopChain>("airfoil_step0", save, adt, res, bres, upd);
        auto second = std::make_shared<LoopChain>("airfoil_step1", adt, res, bres, upd);
        step_ = [this, loops, first, second] {
          rms_ = Real(0);
          first->run(ctx_.config());
          rms_ = Real(0);
          second->run(ctx_.config());
        };
        return;
      }
    }
    step_ = [this, loops] {
      auto& [save, adt, res, bres, upd] = *loops;
      save.run();
      for (int k = 0; k < 2; ++k) {
        adt.run();
        res.run();
        bres.run();
        rms_ = Real(0);
        upd.run();
      }
    };
  }

  std::function<void()> step_;  ///< one outer iteration over the handles
};

}  // namespace opv::airfoil
