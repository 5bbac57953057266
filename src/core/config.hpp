// Execution configuration: which backend runs a parallel loop and how.
#pragma once

#include <string>

#include "core/layout.hpp"

namespace opv {

/// Parallelization backend for op_par_loop (paper sections 4-5).
enum class Backend {
  Seq,     ///< reference serial execution
  OpenMP,  ///< threads over colored blocks, scalar kernels (baseline)
  AutoVec, ///< OpenMP + #pragma omp simd on lane-independent inner loops
  Simd,    ///< explicit vector intrinsics: gather / vector kernel / scatter
  Simt,    ///< OpenCL-model emulation: work-groups from a dynamic queue,
           ///< lock-step W-wide bundles, colored masked increments
};

/// Race-handling scheme for loops with indirect increments (paper section 4).
enum class ColoringStrategy {
  TwoLevel,     ///< blocks colored vs races; increments serialized per lane
  FullPermute,  ///< one global coloring; execute color-by-color; hw scatter
  BlockPermute, ///< per-block color permutation; cache-friendly; hw scatter
};

constexpr const char* backend_name(Backend b) {
  switch (b) {
    case Backend::Seq: return "Seq";
    case Backend::OpenMP: return "OpenMP";
    case Backend::AutoVec: return "AutoVec";
    case Backend::Simd: return "Simd";
    case Backend::Simt: return "Simt";
  }
  return "?";
}

constexpr const char* coloring_name(ColoringStrategy c) {
  switch (c) {
    case ColoringStrategy::TwoLevel: return "TwoLevel";
    case ColoringStrategy::FullPermute: return "FullPermute";
    case ColoringStrategy::BlockPermute: return "BlockPermute";
  }
  return "?";
}

/// Layout heuristic per backend (the context's layout a driver opts into
/// with set_default_layout(default_layout(backend))). The scalar backends
/// keep AoS: one element's components share a cache line, and
/// BENCH_layout.json reads their Airfoil and Tet3D steps at 0.53-0.71x
/// under SoA. The vector backends take SoA (component gathers become dense
/// per-plane, direct accesses unit-stride plane loads; for Simt, the GPU
/// guidance of Sulyok et al., arXiv:1802.03749): the record reads their
/// steps at 0.94-1.10x of AoS, each inside the other layout's min-max over
/// five samples, so SoA costs them no measurable step time but is not a
/// measured per-step win either.
constexpr Layout default_layout(Backend b) {
  switch (b) {
    case Backend::Seq:
    case Backend::OpenMP: return Layout::AoS;
    case Backend::AutoVec:
    case Backend::Simd:
    case Backend::Simt: return Layout::SoA;
  }
  return Layout::AoS;
}

/// Per-loop (or per-application) execution configuration.
struct ExecConfig {
  /// chain_tile_elems value requesting automatic seed-tile sizing.
  static constexpr int kAuto = 0;
  /// The hand-tuned mini-partition size (paper Fig. 8b).
  static constexpr int kDefaultBlockSize = 512;

  Backend backend = Backend::OpenMP;
  ColoringStrategy coloring = ColoringStrategy::TwoLevel;
  int simd_width = 0;   ///< lanes; 0 = widest compiled for the data type
  int block_size = kDefaultBlockSize;  ///< mini-partition size (elements),
                                       ///< positive multiple of 16
  int nthreads = 0;     ///< 0 = OpenMP default
  bool collect_stats = true;

  /// Seed-tile size for cross-loop sparse tiling (core/chain.hpp): how many
  /// elements of a chain's first iteration set seed each tile. kAuto sizes
  /// the tile to a cache budget from the chain's per-element footprint and
  /// lets the chain's perf::OnlineTuner refine it over the first runs;
  /// an explicit value (>= 1) pins the tiling at the first plan.
  int chain_tile_elems = kAuto;

  [[nodiscard]] std::string to_string() const {
    std::string s = backend_name(backend);
    s += "/";
    s += coloring_name(coloring);
    s += " W=" + std::to_string(simd_width) + " B=" + std::to_string(block_size) +
         " T=" + std::to_string(nthreads);
    return s;
  }
};

}  // namespace opv
