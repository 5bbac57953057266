// Volna application driver: shallow-water tsunami propagation on a
// (periodic) triangular mesh, templated over execution context and
// precision (the paper runs Volna in single precision).
#pragma once

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "apps/volna/volna_kernels.hpp"
#include "core/chain.hpp"
#include "core/op2.hpp"
#include "mesh/mesh.hpp"

namespace opv::volna {

/// Register the Table III KernelInfo entries (idempotent).
void register_kernel_info();

/// Edge geometry {nx, ny, len, pad} with the normal oriented from the left
/// cell (edge_cells[2e]) to the right cell, minimum-image safe.
aligned_vector<double> edge_geometry(const mesh::UnstructuredMesh& m);

/// Cell geometry {area, 1/area}, minimum-image safe.
aligned_vector<double> cell_geometry(const mesh::UnstructuredMesh& m);

/// Synthetic tsunami initial condition: still water of depth `depth` with a
/// Gaussian free-surface hump of amplitude `amp` at the domain center.
/// Returns the state vector U = {h, hu, hv, zb} per cell.
aligned_vector<double> initial_state(const mesh::UnstructuredMesh& m, double depth, double amp,
                                     double width);

template <class Real>
aligned_vector<Real> cast_vec(const aligned_vector<double>& in) {
  aligned_vector<Real> out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = static_cast<Real>(in[i]);
  return out;
}

/// The Volna application. Time loop per step:
///   sim_1 (save) -> compute_flux -> numerical_flux (dt) -> space_disc ->
///   RK_1 -> compute_flux -> space_disc -> RK_2
template <class Real, class Ctx>
class Volna {
 public:
  /// With chain=true the step executes through opv::LoopChain handles
  /// (cross-loop sparse tiling, core/chain.hpp); local contexts only —
  /// distributed contexts keep the loop-by-loop step.
  Volna(Ctx& ctx, const mesh::UnstructuredMesh& m, double depth = 1.0, double amp = 0.25,
        double width = 0.08, bool chain = false)
      : ctx_(ctx), ncells_(m.ncells), chain_(chain) {
    register_kernel_info();
    OPV_REQUIRE(m.nodes_per_cell == 3, "Volna requires a triangular mesh");
    centroids_ = volna_centroids(m);

    cells_ = ctx_.decl_set("cells", m.ncells);
    edges_ = ctx_.decl_set("edges", m.nedges);
    ctx_.set_partition_coords(cells_, centroids_.data());

    e2c_ = ctx_.decl_map("e2c", edges_, cells_, 2, m.edge_cells);
    c2e_ = ctx_.decl_map("c2e", cells_, edges_, 3, mesh::build_cell_edges_flat3(m));

    u_ = ctx_.template decl_dat<Real, 4>("values", cells_,
                                         cast_vec<Real>(initial_state(m, depth, amp, width)));
    uold_ = ctx_.template decl_dat<Real, 4>("uold", cells_);
    utmp_ = ctx_.template decl_dat<Real, 4>("utmp", cells_);
    res_ = ctx_.template decl_dat<Real, 4>("res", cells_);
    cdt_ = ctx_.template decl_dat<Real, 1>("cdt", cells_);
    egeom_ = ctx_.template decl_dat<Real, 4>("egeom", edges_, cast_vec<Real>(edge_geometry(m)));
    cgeom_ = ctx_.template decl_dat<Real, 2>("cgeom", cells_, cast_vec<Real>(cell_geometry(m)));
    flux_ = ctx_.template decl_dat<Real, 5>("flux", edges_);
    ctx_.finalize();
    build_loops();
  }

  // The step closure captures `this` (the dt reduction targets).
  Volna(const Volna&) = delete;
  Volna& operator=(const Volna&) = delete;

  /// Advance nsteps timesteps (adaptive dt from the CFL reduction). Each
  /// step runs the persistent loop handles built at construction (ROADMAP
  /// "driver migration to handles").
  void run(int nsteps) {
    for (int step = 0; step < nsteps; ++step) step_();
  }

  /// Fetch the state vector in global cell order.
  aligned_vector<Real> fetch_state() {
    aligned_vector<Real> out;
    ctx_.fetch(u_, out);
    return out;
  }

  [[nodiscard]] double last_dt() const { return dt_; }
  [[nodiscard]] idx_t ncells() const { return ncells_; }
  [[nodiscard]] const Params<Real>& params() const { return params_; }

  /// The evolving non-dat state of the time loop — what a checkpoint must
  /// carry beyond the context dats for a restored run to replay bitwise
  /// (dt_arg_ feeds RK_1/RK_2 as a READ global; dtmin_ is the MIN reduction
  /// target mid-step).
  struct StepGlobals {
    double dt = 0.0;
    Real dtmin = Real(0);
    Real dt_arg = Real(0);
  };
  [[nodiscard]] StepGlobals step_globals() const { return {dt_, dtmin_, dt_arg_}; }
  void set_step_globals(const StepGlobals& g) {
    dt_ = g.dt;
    dtmin_ = g.dtmin;
    dt_arg_ = g.dt_arg;
  }

  /// The state dat handle (health scans, e.g. guard::check_finite).
  [[nodiscard]] auto state_dat() { return u_; }

 private:
  static aligned_vector<double> volna_centroids(const mesh::UnstructuredMesh& m);

  Ctx& ctx_;
  idx_t ncells_;
  bool chain_ = false;
  Params<Real> params_;
  aligned_vector<double> centroids_;
  double dt_ = 0.0;
  Real dtmin_ = Real(0);  ///< numerical_flux's MIN reduction target
  Real dt_arg_ = Real(0); ///< RK_1/RK_2's READ global, set from dtmin_

  typename Ctx::SetHandle cells_{}, edges_{};
  typename Ctx::MapHandle e2c_{}, c2e_{};
  typename Ctx::template FixedDatHandle<Real, 4> u_{}, uold_{}, utmp_{}, res_{}, egeom_{};
  typename Ctx::template FixedDatHandle<Real, 1> cdt_{};
  typename Ctx::template FixedDatHandle<Real, 2> cgeom_{};
  typename Ctx::template FixedDatHandle<Real, 5> flux_{};

  /// One persistent handle per kernel call site (compute_flux and
  /// space_disc each appear twice in a step, so twice here). Every dat is
  /// declared with its compile-time arity (decl_dat<T, N>, FixedDat
  /// handles: u/uold/utmp/res/egeom:4, flux:5, cgeom:2, cdt:1), so each
  /// argument carries its arity from the handle's type and every
  /// gather/scatter unrolls at instantiation time (docs/API.md,
  /// "compile-time Dim").
  auto make_loops() {
    auto space_disc = [this] {
      return ctx_.make_loop(SpaceDisc<Real>{}, "space_disc", edges_,
                            ctx_.template arg<opv::READ>(flux_),
                            ctx_.template arg<opv::READ>(egeom_),
                            ctx_.template arg<opv::READ>(cgeom_, 0, e2c_),
                            ctx_.template arg<opv::READ>(cgeom_, 1, e2c_),
                            ctx_.template arg<opv::INC>(res_, 0, e2c_),
                            ctx_.template arg<opv::INC>(res_, 1, e2c_));
    };
    return std::make_tuple(
        ctx_.make_loop(Sim1<Real>{}, "sim_1", cells_, ctx_.template arg<opv::READ>(u_),
                       ctx_.template arg<opv::WRITE>(uold_)),
        ctx_.make_loop(ComputeFlux<Real>{params_}, "compute_flux", edges_,
                       ctx_.template arg<opv::READ>(u_, 0, e2c_),
                       ctx_.template arg<opv::READ>(u_, 1, e2c_),
                       ctx_.template arg<opv::READ>(egeom_),
                       ctx_.template arg<opv::WRITE>(flux_)),
        ctx_.make_loop(NumericalFlux<Real>{params_}, "numerical_flux", cells_,
                       ctx_.template arg<opv::READ>(flux_, 0, c2e_),
                       ctx_.template arg<opv::READ>(flux_, 1, c2e_),
                       ctx_.template arg<opv::READ>(flux_, 2, c2e_),
                       ctx_.template arg<opv::READ>(cgeom_),
                       ctx_.template arg<opv::WRITE>(cdt_),
                       ctx_.template arg_gbl<opv::MIN>(&dtmin_, 1)),
        space_disc(),
        ctx_.make_loop(RK1<Real>{}, "RK_1", cells_, ctx_.template arg<opv::READ>(u_),
                       ctx_.template arg<opv::RW>(res_),
                       ctx_.template arg<opv::WRITE>(utmp_),
                       ctx_.template arg_gbl<opv::READ>(&dt_arg_, 1)),
        ctx_.make_loop(ComputeFlux<Real>{params_}, "compute_flux", edges_,
                       ctx_.template arg<opv::READ>(utmp_, 0, e2c_),
                       ctx_.template arg<opv::READ>(utmp_, 1, e2c_),
                       ctx_.template arg<opv::READ>(egeom_),
                       ctx_.template arg<opv::WRITE>(flux_)),
        space_disc(),
        ctx_.make_loop(RK2<Real>{}, "RK_2", cells_, ctx_.template arg<opv::READ>(uold_),
                       ctx_.template arg<opv::READ>(utmp_),
                       ctx_.template arg<opv::RW>(res_),
                       ctx_.template arg<opv::WRITE>(u_),
                       ctx_.template arg_gbl<opv::READ>(&dt_arg_, 1)));
  }

  /// Pin the handles in a type-erased per-step closure (see the Airfoil
  /// driver for the pattern).
  ///
  /// Chain mode splits the step at its one irreducible host-code point —
  /// reading the CFL reduction back and rebroadcasting it as dt — and fuses
  /// each side (the dtmin_ reset moves to the chain boundary, legal because
  /// MIN-merging per-tile partials is exact and nothing reads dtmin_
  /// mid-chain):
  ///   dtmin_=+inf; [sim_1 compute_flux numerical_flux]
  ///   dt_=dt_arg_=dtmin_; [space_disc RK_1 compute_flux space_disc RK_2]
  void build_loops() {
    auto loops = std::make_shared<decltype(make_loops())>(make_loops());
    // Local handles are opv::Loops and join a chain as they are.
    if constexpr (requires(LoopChain& c) { c.add(std::get<0>(*loops)); }) {
      if (chain_) {
        auto& [sim1, flux_u, numflux, space1, rk1, flux_ut, space2, rk2] = *loops;
        auto cfl = std::make_shared<LoopChain>("volna_cfl", sim1, flux_u, numflux);
        auto rk = std::make_shared<LoopChain>("volna_rk", space1, rk1, flux_ut, space2, rk2);
        step_ = [this, loops, cfl, rk] {
          dtmin_ = std::numeric_limits<Real>::max();
          cfl->run(ctx_.config());
          dt_ = static_cast<double>(dtmin_);
          dt_arg_ = dtmin_;
          rk->run(ctx_.config());
        };
        return;
      }
    }
    step_ = [this, loops] {
      auto& [sim1, flux_u, numflux, space1, rk1, flux_ut, space2, rk2] = *loops;
      sim1.run();
      flux_u.run();
      dtmin_ = std::numeric_limits<Real>::max();
      numflux.run();
      dt_ = static_cast<double>(dtmin_);
      dt_arg_ = dtmin_;
      space1.run();
      rk1.run();
      flux_ut.run();
      space2.run();
      rk2.run();
    };
  }

  std::function<void()> step_;  ///< one timestep over the handles
};

/// Total water volume sum(h*area): conserved exactly by the scheme (up to
/// floating-point roundoff) on a periodic mesh — the app's key invariant.
template <class Real>
double total_volume(const aligned_vector<Real>& state, const aligned_vector<double>& cell_geom) {
  double vol = 0.0;
  const std::size_t n = cell_geom.size() / 2;
  for (std::size_t c = 0; c < n; ++c)
    vol += static_cast<double>(state[c * 4]) * cell_geom[c * 2];
  return vol;
}

// Out-of-line so the header stays light; defined in volna.cpp.
template <class Real, class Ctx>
aligned_vector<double> Volna<Real, Ctx>::volna_centroids(const mesh::UnstructuredMesh& m) {
  // Same min-image centroid logic as the airfoil app; duplicated locally to
  // keep the two app libraries independent.
  const int k = m.nodes_per_cell;
  aligned_vector<double> cent(static_cast<std::size_t>(m.ncells) * 2);
  for (idx_t c = 0; c < m.ncells; ++c) {
    const idx_t n0 = m.cell_nodes[static_cast<std::size_t>(c) * k];
    const double x0 = m.node_xy[2 * static_cast<std::size_t>(n0)];
    const double y0 = m.node_xy[2 * static_cast<std::size_t>(n0) + 1];
    double sx = 0.0, sy = 0.0;
    for (int j = 0; j < k; ++j) {
      const idx_t n = m.cell_nodes[static_cast<std::size_t>(c) * k + j];
      sx += m.wrap_dx(m.node_xy[2 * static_cast<std::size_t>(n)] - x0);
      sy += m.wrap_dy(m.node_xy[2 * static_cast<std::size_t>(n) + 1] - y0);
    }
    cent[2 * static_cast<std::size_t>(c)] = x0 + sx / k;
    cent[2 * static_cast<std::size_t>(c) + 1] = y0 + sy / k;
  }
  return cent;
}

}  // namespace opv::volna
