// Tet3D application driver: explicit cell-centered finite-volume
// advection-diffusion on a tetrahedral mesh, templated over execution
// context (LocalCtx or dist::DistCtx) and precision — the 3D sibling of
// apps/airfoil. Exercises the full ingest surface: 3- and 4-ary maps over
// cells/faces/nodes, geometry precomputation loops, an indirect-INC
// gradient/flux chain, and a global reduction.
//
//   step: save_u; grad_calc; bgrad_calc; flux_calc; bflux_calc; update_u
#pragma once

#include <cmath>
#include <functional>
#include <memory>
#include <tuple>
#include <vector>

#include "apps/tet3d/tet3d_kernels.hpp"
#include "core/chain.hpp"
#include "core/op2.hpp"
#include "mesh/tetmesh.hpp"

namespace opv::tet3d {

/// Register the KernelInfo entries for the Tet3D kernels (idempotent).
void register_kernel_info();

// Partitioning uses the full 3D tet centroids (mesh::tet_cell_centroids)
// with ndims == 3, so RCB bisects the true 3D bounding box — an xy
// projection would collapse every z-stratum of the mesh onto one plane and
// produce needlessly long rank boundaries.

/// Gaussian-bump initial condition centered on the node bounding box
/// (deterministic in the mesh geometry alone).
aligned_vector<double> initial_bump(const mesh::TetMesh& m);

/// min over cells of vol / sum-of-face-flux-coefficients — the explicit
/// Euler stability bound for the scheme's advective + diffusive fluxes
/// (computed host-side from the exact face geometry; thin Kuhn tets make
/// spacing-based estimates unsafe).
double stable_dt_bound(const mesh::TetMesh& m, const double vel[3], double kappa);

/// CFL-scaled stable timestep for the standard constants.
template <class Real>
Real stable_dt(const Consts<Real>& c, const mesh::TetMesh& m) {
  const double vel[3] = {double(c.vel[0]), double(c.vel[1]), double(c.vel[2])};
  return Real(double(c.cfl) * stable_dt_bound(m, vel, double(c.kappa)));
}

template <class Real>
aligned_vector<Real> to_real_vec(const aligned_vector<double>& in) {
  aligned_vector<Real> out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = static_cast<Real>(in[i]);
  return out;
}

template <class Real, class Ctx>
class Tet3D {
 public:
  /// With chain=true the step executes through one opv::LoopChain over the
  /// six loop handles (local contexts only; distributed contexts keep the
  /// loop-by-loop step, as in Airfoil).
  Tet3D(Ctx& ctx, const mesh::TetMesh& m, bool chain = false)
      : ctx_(ctx), ncells_(m.ncells), chain_(chain) {
    register_kernel_info();
    consts_ = Consts<Real>::standard();
    dt_ = stable_dt(consts_, m);
    part_coords_ = mesh::tet_cell_centroids(m);

    nodes_ = ctx_.decl_set("nodes", m.nnodes);
    cells_ = ctx_.decl_set("cells", m.ncells);
    faces_ = ctx_.decl_set("faces", m.nfaces);
    bfaces_ = ctx_.decl_set("bfaces", m.nbfaces);
    ctx_.set_partition_coords(cells_, part_coords_.data(), 3);

    pcell_ = ctx_.decl_map("pcell", cells_, nodes_, 4, m.cell_nodes);
    pface_ = ctx_.decl_map("pface", faces_, nodes_, 3, m.face_nodes);
    pfcell_ = ctx_.decl_map("pfcell", faces_, cells_, 2, m.face_cells);
    pbface_ = ctx_.decl_map("pbface", bfaces_, nodes_, 3, m.bface_nodes);
    pbfcell_ = ctx_.decl_map("pbfcell", bfaces_, cells_, 1, m.bface_cell);

    x_ = ctx_.template decl_dat<Real, 3>("x", nodes_, to_real_vec<Real>(m.node_xyz));
    u_ = ctx_.template decl_dat<Real, 1>("u", cells_, to_real_vec<Real>(initial_bump(m)));
    uold_ = ctx_.template decl_dat<Real, 1>("uold", cells_);
    grad_ = ctx_.template decl_dat<Real, 3>("grad", cells_);
    res_ = ctx_.template decl_dat<Real, 1>("res", cells_);
    cgeom_ = ctx_.template decl_dat<Real, 4>("cgeom", cells_);
    fgeom_ = ctx_.template decl_dat<Real, 6>("fgeom", faces_);
    bfgeom_ = ctx_.template decl_dat<Real, 6>("bfgeom", bfaces_);
    bound_ = ctx_.template decl_dat<std::int32_t, 1>("bound", bfaces_, m.bface_bound);
    ctx_.finalize();
    init_geometry();
    build_loops();
  }

  // The step closure captures `this` (the rms reduction target).
  Tet3D(const Tet3D&) = delete;
  Tet3D& operator=(const Tet3D&) = delete;

  /// Run niter steps through the persistent handles; records
  /// sqrt(rms/ncells) every rms_every steps.
  void run(int niter, int rms_every = 100) {
    for (int iter = 1; iter <= niter; ++iter) {
      step_();
      last_rms_ = std::sqrt(static_cast<double>(rms_) / ncells_);
      if (rms_every > 0 && iter % rms_every == 0) rms_history_.push_back(last_rms_);
    }
  }

  [[nodiscard]] double last_rms() const { return last_rms_; }
  [[nodiscard]] const std::vector<double>& rms_history() const { return rms_history_; }

  /// Fetch state in global (declaration-order) cell numbering.
  aligned_vector<Real> fetch_u() {
    aligned_vector<Real> out;
    ctx_.fetch(u_, out);
    return out;
  }
  aligned_vector<Real> fetch_grad() {
    aligned_vector<Real> out;
    ctx_.fetch(grad_, out);
    return out;
  }

  [[nodiscard]] idx_t ncells() const { return ncells_; }
  [[nodiscard]] const Consts<Real>& consts() const { return consts_; }
  [[nodiscard]] Real dt() const { return dt_; }

  /// The evolving non-dat state of the time loop — what a checkpoint must
  /// carry beyond the context dats (rms_ is update_u's reduction target;
  /// last_rms_ derives from it). rms_history_ is advisory diagnostics and
  /// not part of the checkpoint contract.
  struct StepGlobals {
    double last_rms = 0.0;
    Real rms = Real(0);
  };
  [[nodiscard]] StepGlobals step_globals() const { return {last_rms_, rms_}; }
  void set_step_globals(const StepGlobals& g) {
    last_rms_ = g.last_rms;
    rms_ = g.rms;
  }

  /// The state dat handle (health scans, e.g. guard::check_finite).
  [[nodiscard]] auto state_dat() { return u_; }

 private:
  Ctx& ctx_;
  idx_t ncells_;
  bool chain_ = false;
  Consts<Real> consts_;
  Real dt_ = Real(0);
  aligned_vector<double> part_coords_;  ///< full 3D tet centroids (ndims == 3)
  std::vector<double> rms_history_;
  double last_rms_ = 0.0;
  Real rms_ = Real(0);  ///< update_u's reduction target, bound into its handle

  typename Ctx::SetHandle nodes_{}, cells_{}, faces_{}, bfaces_{};
  typename Ctx::MapHandle pcell_{}, pface_{}, pfcell_{}, pbface_{}, pbfcell_{};
  typename Ctx::template FixedDatHandle<Real, 3> x_{}, grad_{};
  typename Ctx::template FixedDatHandle<Real, 1> u_{}, uold_{}, res_{};
  typename Ctx::template FixedDatHandle<Real, 4> cgeom_{};
  typename Ctx::template FixedDatHandle<Real, 6> fgeom_{}, bfgeom_{};
  typename Ctx::template FixedDatHandle<std::int32_t, 1> bound_{};

  /// Geometry precomputation: one pass each over cells, faces and boundary
  /// faces at construction, gathering node positions through the 3-/4-ary
  /// maps. Run once; the handles are dropped afterwards. Arities come from
  /// the FixedDat handles (x/grad:3, cgeom:4, fgeom/bfgeom:6, scalars:1).
  void init_geometry() {
    auto cg = ctx_.make_loop(CellGeom<Real>{}, "t3d_cell_geom", cells_,
                             ctx_.template arg<opv::READ>(x_, 0, pcell_),
                             ctx_.template arg<opv::READ>(x_, 1, pcell_),
                             ctx_.template arg<opv::READ>(x_, 2, pcell_),
                             ctx_.template arg<opv::READ>(x_, 3, pcell_),
                             ctx_.template arg<opv::WRITE>(cgeom_));
    auto fg = ctx_.make_loop(FaceGeom<Real>{}, "t3d_face_geom", faces_,
                             ctx_.template arg<opv::READ>(x_, 0, pface_),
                             ctx_.template arg<opv::READ>(x_, 1, pface_),
                             ctx_.template arg<opv::READ>(x_, 2, pface_),
                             ctx_.template arg<opv::WRITE>(fgeom_));
    auto bg = ctx_.make_loop(FaceGeom<Real>{}, "t3d_bface_geom", bfaces_,
                             ctx_.template arg<opv::READ>(x_, 0, pbface_),
                             ctx_.template arg<opv::READ>(x_, 1, pbface_),
                             ctx_.template arg<opv::READ>(x_, 2, pbface_),
                             ctx_.template arg<opv::WRITE>(bfgeom_));
    cg.run();
    fg.run();
    bg.run();
  }

  auto make_loops() {
    return std::make_tuple(
        ctx_.make_loop(SaveU<Real>{}, "t3d_save_u", cells_, ctx_.template arg<opv::READ>(u_),
                       ctx_.template arg<opv::WRITE>(uold_)),
        ctx_.make_loop(GradCalc<Real>{}, "t3d_grad_calc", faces_,
                       ctx_.template arg<opv::READ>(u_, 0, pfcell_),
                       ctx_.template arg<opv::READ>(u_, 1, pfcell_),
                       ctx_.template arg<opv::READ>(cgeom_, 0, pfcell_),
                       ctx_.template arg<opv::READ>(cgeom_, 1, pfcell_),
                       ctx_.template arg<opv::READ>(fgeom_),
                       ctx_.template arg<opv::INC>(grad_, 0, pfcell_),
                       ctx_.template arg<opv::INC>(grad_, 1, pfcell_)),
        ctx_.make_loop(BGradCalc<Real>{consts_}, "t3d_bgrad_calc", bfaces_,
                       ctx_.template arg<opv::READ>(u_, 0, pbfcell_),
                       ctx_.template arg<opv::READ>(cgeom_, 0, pbfcell_),
                       ctx_.template arg<opv::READ>(bfgeom_),
                       ctx_.template arg<opv::READ>(bound_),
                       ctx_.template arg<opv::INC>(grad_, 0, pbfcell_)),
        ctx_.make_loop(FluxCalc<Real>{consts_}, "t3d_flux_calc", faces_,
                       ctx_.template arg<opv::READ>(u_, 0, pfcell_),
                       ctx_.template arg<opv::READ>(u_, 1, pfcell_),
                       ctx_.template arg<opv::READ>(grad_, 0, pfcell_),
                       ctx_.template arg<opv::READ>(grad_, 1, pfcell_),
                       ctx_.template arg<opv::READ>(cgeom_, 0, pfcell_),
                       ctx_.template arg<opv::READ>(cgeom_, 1, pfcell_),
                       ctx_.template arg<opv::READ>(fgeom_),
                       ctx_.template arg<opv::INC>(res_, 0, pfcell_),
                       ctx_.template arg<opv::INC>(res_, 1, pfcell_)),
        ctx_.make_loop(BFluxCalc<Real>{consts_}, "t3d_bflux_calc", bfaces_,
                       ctx_.template arg<opv::READ>(u_, 0, pbfcell_),
                       ctx_.template arg<opv::READ>(grad_, 0, pbfcell_),
                       ctx_.template arg<opv::READ>(cgeom_, 0, pbfcell_),
                       ctx_.template arg<opv::READ>(bfgeom_),
                       ctx_.template arg<opv::READ>(bound_),
                       ctx_.template arg<opv::INC>(res_, 0, pbfcell_)),
        ctx_.make_loop(UpdateU<Real>{dt_}, "t3d_update_u", cells_,
                       ctx_.template arg<opv::READ>(uold_),
                       ctx_.template arg<opv::READ>(cgeom_),
                       ctx_.template arg<opv::WRITE>(u_),
                       ctx_.template arg<opv::RW>(res_),
                       ctx_.template arg<opv::RW>(grad_),
                       ctx_.template arg_gbl<opv::INC>(&rms_, 1)));
  }

  /// Chain mode fuses the whole step into one LoopChain; the rms_ reset
  /// moves to the chain boundary (legal: the INC reduction only adds into
  /// the target, nothing reads rms_ mid-chain).
  void build_loops() {
    auto loops = std::make_shared<decltype(make_loops())>(make_loops());
    // Local handles are opv::Loops and join a chain as they are.
    if constexpr (requires(LoopChain& c) { c.add(std::get<0>(*loops)); }) {
      if (chain_) {
        auto& [save, grad, bgrad, flux, bflux, upd] = *loops;
        auto step =
            std::make_shared<LoopChain>("tet3d_step", save, grad, bgrad, flux, bflux, upd);
        step_ = [this, loops, step] {
          rms_ = Real(0);
          step->run(ctx_.config());
        };
        return;
      }
    }
    step_ = [this, loops] {
      auto& [save, grad, bgrad, flux, bflux, upd] = *loops;
      save.run();
      grad.run();
      bgrad.run();
      flux.run();
      bflux.run();
      rms_ = Real(0);
      upd.run();
    };
  }

  std::function<void()> step_;  ///< one timestep over the handles
};

}  // namespace opv::tet3d
