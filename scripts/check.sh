#!/usr/bin/env bash
# Local verification: the tier-1 sequence (configure + build + ctest) plus
# the quickstart example (cross-backend agreement at the CLI surface) and a
# smoke run of the dispatch-path microbench, so regressions in the par_loop
# dispatch path are caught before review.
#
# Usage: scripts/check.sh [--dist] [--ingest] [--resilience] [--docs]
#                          [--docs-only] [build-dir]
#   --resilience also smoke-run the fault-tolerance path: ablation_resilience
#                on a small mesh (fails if checkpointing perturbs results,
#                if an injected fault is not recovered bitwise, or if
#                kill-and-resume through an OPVK file diverges) and the
#                volna_hazard --fault demo with recovery enabled
#   --ingest     also smoke-run the mesh ingest path: tet3d_sim on a small
#                generated box and ablation_ingest with the committed MSH
#                fixture corpus (fails on round-trip inexactness, on any
#                imported-vs-in-memory bitwise divergence, or on
#                cross-backend divergence beyond 1e-12 of the field norm)
#   --dist       also smoke-run the distributed benches: the dispatch-path
#                micro (ablation_dist_dispatch: DistCtx::loop vs
#                dist::Loop::run), the exchange-overlap ablation
#                (ablation_overlap on a small mesh; fails if overlapped
#                execution is not bitwise-identical to blocking phased) and
#                the renumbering ablation (ablation_renumber on a small
#                mesh; fails if renumbered execution diverges beyond
#                floating-point reassociation tolerance)
#   --docs       also validate the documentation map: every bench/ target
#                and every src/ subsystem must appear in docs/ARCHITECTURE.md
#   --docs-only  run only the documentation check (no configure/build/test)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build"
DIST=0
INGEST=0
RESIL=0
DOCS=0
DOCS_ONLY=0
for arg in "$@"; do
  case "$arg" in
    --dist) DIST=1 ;;
    --ingest) INGEST=1 ;;
    --resilience) RESIL=1 ;;
    --docs) DOCS=1 ;;
    --docs-only) DOCS=1; DOCS_ONLY=1 ;;
    -*) echo "unknown flag: $arg" >&2; exit 1 ;;
    *) BUILD="$arg" ;;
  esac
done

check_docs() {
  echo "== docs map (docs/ARCHITECTURE.md) =="
  local map="$ROOT/docs/ARCHITECTURE.md"
  local failed=0
  for f in "$ROOT"/README.md "$map"; do
    if [ ! -f "$f" ]; then
      echo "MISSING: ${f#"$ROOT"/}" >&2
      failed=1
    fi
  done
  [ "$failed" = 0 ] || exit 1
  # Every bench binary must be mapped to a paper figure/table or ablation.
  for src in "$ROOT"/bench/*.cpp; do
    local name
    name="$(basename "$src" .cpp)"
    if ! grep -q "\`$name\`" "$map"; then
      echo "UNDOCUMENTED bench target: $name (add it to the map table in docs/ARCHITECTURE.md)" >&2
      failed=1
    fi
  done
  # Every src/ subsystem must appear in the paper-to-code map.
  for d in "$ROOT"/src/*/; do
    local sub
    sub="$(basename "$d")"
    if ! grep -q "src/$sub" "$map"; then
      echo "UNDOCUMENTED src subsystem: src/$sub (add it to docs/ARCHITECTURE.md)" >&2
      failed=1
    fi
  done
  # The loop-chain subsystem lives inside src/core, below the granularity
  # of the per-directory glob above — require its file-level entry too.
  if ! grep -q "src/core/chain" "$map"; then
    echo "UNDOCUMENTED src subsystem: src/core/chain (add it to docs/ARCHITECTURE.md)" >&2
    failed=1
  fi
  if [ "$failed" != 0 ]; then
    echo "docs check FAILED" >&2
    exit 1
  fi
  echo "docs map OK"
}

if [ "$DOCS_ONLY" = 1 ]; then
  check_docs
  echo "== OK =="
  exit 0
fi

echo "== configure =="
cmake -B "$BUILD" -S "$ROOT"

echo "== build =="
cmake --build "$BUILD" -j

echo "== ctest =="
ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)"

echo "== quickstart =="
# The declare / make_loop / run workflow on all six backend configurations;
# exits non-zero if a backend's final max|change| differs from Seq's by
# more than 1e-9 relative.
if [ -x "$BUILD/quickstart" ]; then
  "$BUILD/quickstart" --n=32 --iters=5
else
  echo "quickstart not built (OPV_BUILD_EXAMPLES=OFF?) - skipped"
fi

echo "== dispatch-path smoke =="
if [ -x "$BUILD/ablation_dispatch" ]; then
  # One fast iteration per benchmark: catches dispatch-path breakage and
  # gross slowdowns without a full measurement run.
  "$BUILD/ablation_dispatch" --benchmark_min_time=0.05
else
  echo "ablation_dispatch not built (Google Benchmark missing) - skipped"
fi

echo "== loop-chain tiling smoke =="
# Small mesh, few iterations, pinned tile size: exercises the cross-loop
# sparse-tiling inspector/executor (core/chain) end to end and exits
# non-zero if chained execution diverges from the loop-by-loop baseline.
# Timings at this size are noise; scripts/bench_report.sh does the
# measurement run.
if [ -x "$BUILD/ablation_tiling" ]; then
  "$BUILD/ablation_tiling" --small --iters=2 --tile=4096
else
  echo "ablation_tiling not built (OPV_BUILD_BENCH=OFF?) - skipped"
fi

echo "== ensemble-serving smoke =="
# Few tiny instances, few steps: exercises the ensemble scheduler (serve/)
# end to end — WorkQueue multiplexing, per-instance stats scoping, plan
# sharing — and exits non-zero if any interleaved instance diverges bitwise
# from its solo Seq execution. Speedups at this size are noise;
# scripts/bench_report.sh does the measurement run.
if [ -x "$BUILD/ablation_ensemble" ]; then
  "$BUILD/ablation_ensemble" --small --steps=2
else
  echo "ablation_ensemble not built (OPV_BUILD_BENCH=OFF?) - skipped"
fi

echo "== memory-layout smoke =="
# Small meshes, few iterations: exercises the context's memory layout (AoS
# / SoA, core/layout.hpp) end to end and exits non-zero if Seq is not
# bitwise-identical across layouts or any vector backend diverges beyond
# 1e-12 of the field norm. Speedups at this size are noise;
# scripts/bench_report.sh does the measurement run.
if [ -x "$BUILD/ablation_layout" ]; then
  "$BUILD/ablation_layout" --small --iters=2
else
  echo "ablation_layout not built (OPV_BUILD_BENCH=OFF?) - skipped"
fi

if [ "$INGEST" = 1 ]; then
  echo "== mesh ingest smoke =="
  # Small tet box through the 3D mini-app (all six loops, geometry
  # precompute, RMS reduction), then the ingest gates: MSH round-trip
  # exactness, imported-vs-in-memory bitwise identity through renumber +
  # chain + DistCtx, cross-backend field-norm agreement, and a parse of
  # the committed fixture corpus. Timings at this size are noise;
  # scripts/bench_report.sh does the measurement run.
  if [ -x "$BUILD/tet3d_sim" ]; then
    "$BUILD/tet3d_sim" --n=6 --iters=20
  else
    echo "tet3d_sim not built (OPV_BUILD_EXAMPLES=OFF?) - skipped"
  fi
  if [ -x "$BUILD/ablation_ingest" ]; then
    "$BUILD/ablation_ingest" --small --n=8 --steps=3 \
      --fixtures="$ROOT/tests/fixtures/msh"
  else
    echo "ablation_ingest not built (OPV_BUILD_BENCH=OFF?) - skipped"
  fi
fi

if [ "$RESIL" = 1 ]; then
  echo "== resilience smoke =="
  # Small mesh, few steps: exercises the whole fault-tolerance layer —
  # checkpoint cadence, finiteness guard, restore + replay, retirement,
  # OPVK kill-and-resume — and exits non-zero if the guarded, recovered or
  # resumed runs are not bitwise-identical to the uninterrupted baseline.
  # Overhead at this size is noise; scripts/bench_report.sh measures it.
  if [ -x "$BUILD/ablation_resilience" ]; then
    "$BUILD/ablation_resilience" --small
  else
    echo "ablation_resilience not built (OPV_BUILD_BENCH=OFF?) - skipped"
  fi

  echo "== hazard fault-recovery smoke =="
  # The user-facing workflow: a NaN planted mid-sweep in instance 0 is
  # detected by the health scan and recovered through the last checkpoint;
  # the example exits non-zero if any instance retires.
  if [ -x "$BUILD/volna_hazard" ]; then
    "$BUILD/volna_hazard" --n=24 --instances=4 --steps=12 \
      --cadence=4 --retries=2 --fault=6
  else
    echo "volna_hazard not built (OPV_BUILD_EXAMPLES=OFF?) - skipped"
  fi
fi

if [ "$DIST" = 1 ]; then
  echo "== dist dispatch-path smoke =="
  if [ -x "$BUILD/ablation_dist_dispatch" ]; then
    "$BUILD/ablation_dist_dispatch" --benchmark_min_time=0.05
  else
    echo "ablation_dist_dispatch not built (Google Benchmark missing) - skipped"
  fi

  echo "== exchange-overlap smoke =="
  # Small mesh, few iterations: exercises the phased begin/interior/wait/
  # boundary pipeline end to end and exits non-zero if overlapped results
  # diverge bitwise from the blocking phased schedule.
  if [ -x "$BUILD/ablation_overlap" ]; then
    "$BUILD/ablation_overlap" --n=64 --iters=3 --ranks=4
  else
    echo "ablation_overlap not built (OPV_BUILD_BENCH=OFF?) - skipped"
  fi

  echo "== renumbering smoke =="
  # Small mesh, few iterations: exercises the context-level renumbering
  # pass end to end (local + dist) and exits non-zero if the renumbered
  # execution diverges from the baseline beyond reassociation tolerance.
  # Timings at this size are noise; scripts/bench_report.sh does the
  # measurement run.
  if [ -x "$BUILD/ablation_renumber" ]; then
    "$BUILD/ablation_renumber" --small --iters=2 --ranks=2
  else
    echo "ablation_renumber not built (OPV_BUILD_BENCH=OFF?) - skipped"
  fi
fi

if [ "$DOCS" = 1 ]; then
  check_docs
fi

echo "== OK =="
