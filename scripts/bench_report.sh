#!/usr/bin/env bash
# Emit the committed perf records, so the repo carries a perf trajectory
# instead of prose claims:
#   BENCH_renumber.json  recovered-fraction record of the renumbering pass
#                        (ablation_renumber)
#   BENCH_tiling.json    cross-loop sparse-tiling record: chained vs
#                        loop-by-loop speedup per backend (ablation_tiling)
#   BENCH_ensemble.json  ensemble-serving record: instances/sec at
#                        N in {1, 4, 16}, concurrent vs sequential, shared
#                        vs per-instance mesh (ablation_ensemble)
#   BENCH_ingest.json    mesh ingest record: write/parse/convert/ctx-build
#                        seconds per format (MSH v2.2, MSH v4.1, OPVM/OPVT
#                        binary), gated by the ingest equivalence checks
#                        (ablation_ingest)
#   BENCH_layout.json    memory-layout record: AoS vs SoA per backend,
#                        as ms per Airfoil and Tet3D step (every loop
#                        summed) and seconds for res_calc and
#                        t3d_flux_calc (median and min-max of 5
#                        alternating samples per cell; soa_speedup from
#                        the medians; the headline is the lowest step
#                        ratio on the vector backends), gated by the
#                        layout equivalence checks (ablation_layout)
#   BENCH_resilience.json  fault-tolerance record: checkpoint overhead %,
#                        OPVK write/read seconds, restore counts — gated by
#                        the bitwise recovery/resume checks
#                        (ablation_resilience)
# Run after scripts/check.sh (needs a built tree).
#
# Usage: scripts/bench_report.sh [build-dir]
#   OUT=path          renumber output (default: BENCH_renumber.json at root)
#   BENCH_ARGS=...    flags for ablation_renumber (default: a quick
#                     small-mesh run; drop --small for a full measurement)
#   TILING_OUT=path   tiling output (default: BENCH_tiling.json at root)
#   TILING_ARGS=...   flags for ablation_tiling (default: a quick small-mesh
#                     run; use --large for the measurement run — the chained
#                     win only appears once the working set exceeds LLC)
#   ENSEMBLE_OUT=path  ensemble output (default: BENCH_ensemble.json at root)
#   ENSEMBLE_ARGS=...  flags for ablation_ensemble (the speedup column only
#                      shows on multi-core hosts; the JSON records cores)
#   INGEST_OUT=path    ingest output (default: BENCH_ingest.json at root)
#   INGEST_ARGS=...    flags for ablation_ingest (default: a quick
#                      small-mesh run; drop --small for a full measurement)
#   LAYOUT_OUT=path    layout output (default: BENCH_layout.json at root)
#   LAYOUT_ARGS=...    flags for ablation_layout (default: the full default
#                      mesh — the non-AoS win only appears once the working
#                      set is memory-bound; --small turns it into a smoke)
#   RESILIENCE_OUT=path   resilience output (default: BENCH_resilience.json)
#   RESILIENCE_ARGS=...   flags for ablation_resilience (default: the full
#                         default mesh at cadence 50, where the <5% overhead
#                         target is meaningful; --small turns it into a smoke)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build}"
OUT="${OUT:-$ROOT/BENCH_renumber.json}"
ARGS=${BENCH_ARGS:---small --iters=4 --ranks=2}
TILING_OUT="${TILING_OUT:-$ROOT/BENCH_tiling.json}"
TILING_ARGS=${TILING_ARGS:---small --iters=3 --tile=4096}
ENSEMBLE_OUT="${ENSEMBLE_OUT:-$ROOT/BENCH_ensemble.json}"
ENSEMBLE_ARGS=${ENSEMBLE_ARGS:---small --steps=6}
INGEST_OUT="${INGEST_OUT:-$ROOT/BENCH_ingest.json}"
INGEST_ARGS=${INGEST_ARGS:---small --n=12 --steps=3}
LAYOUT_OUT="${LAYOUT_OUT:-$ROOT/BENCH_layout.json}"
LAYOUT_ARGS=${LAYOUT_ARGS:---iters=8}
RESILIENCE_OUT="${RESILIENCE_OUT:-$ROOT/BENCH_resilience.json}"
RESILIENCE_ARGS=${RESILIENCE_ARGS:---max-overhead=5}

if [ ! -x "$BUILD/ablation_renumber" ]; then
  echo "ablation_renumber not built in $BUILD (run scripts/check.sh first)" >&2
  exit 1
fi

# shellcheck disable=SC2086
"$BUILD/ablation_renumber" $ARGS --json="$OUT"
echo "wrote $OUT"

if [ ! -x "$BUILD/ablation_tiling" ]; then
  echo "ablation_tiling not built in $BUILD (run scripts/check.sh first)" >&2
  exit 1
fi

# shellcheck disable=SC2086
"$BUILD/ablation_tiling" $TILING_ARGS --json="$TILING_OUT"
echo "wrote $TILING_OUT"

if [ ! -x "$BUILD/ablation_ensemble" ]; then
  echo "ablation_ensemble not built in $BUILD (run scripts/check.sh first)" >&2
  exit 1
fi

# shellcheck disable=SC2086
"$BUILD/ablation_ensemble" $ENSEMBLE_ARGS --json="$ENSEMBLE_OUT"
echo "wrote $ENSEMBLE_OUT"

if [ ! -x "$BUILD/ablation_ingest" ]; then
  echo "ablation_ingest not built in $BUILD (run scripts/check.sh first)" >&2
  exit 1
fi

# shellcheck disable=SC2086
"$BUILD/ablation_ingest" $INGEST_ARGS --fixtures="$ROOT/tests/fixtures/msh" \
  --json="$INGEST_OUT"
echo "wrote $INGEST_OUT"

if [ ! -x "$BUILD/ablation_layout" ]; then
  echo "ablation_layout not built in $BUILD (run scripts/check.sh first)" >&2
  exit 1
fi

# shellcheck disable=SC2086
"$BUILD/ablation_layout" $LAYOUT_ARGS --json="$LAYOUT_OUT"
echo "wrote $LAYOUT_OUT"

if [ ! -x "$BUILD/ablation_resilience" ]; then
  echo "ablation_resilience not built in $BUILD (run scripts/check.sh first)" >&2
  exit 1
fi

# shellcheck disable=SC2086
"$BUILD/ablation_resilience" $RESILIENCE_ARGS --json="$RESILIENCE_OUT"
echo "wrote $RESILIENCE_OUT"
