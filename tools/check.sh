#!/usr/bin/env bash
# tools/check.sh — the correctness gate for the data-management core.
#
# Stages, in order:
#   asan     ASan+UBSan Debug build of the whole tree with CA_WERROR=ON
#            (every target builds warning-free; Debug ⇒
#            CA_AUDIT_ENABLED, so every DataManager mutation boundary is
#            audited during the tests), then the full ctest suite under it —
#            including the randomized audit stress harness (the audit
#            tests, which sweep the binned first-fit allocator with seeded
#            >=5k-step runs), the Transfer edge-case tests and the
#            bench-smoke tests.  Later stages rerun a suite only where the
#            build or the environment differs from this one.
#   tsan     TSan build of the concurrency-bearing components (thread pool,
#            copy engine, data-manager transfer registry) and their tests,
#            including the Async* interleaving suites.
#   race     CA_RACE=ON build (instrumented sync shims + vector-clock
#            detector) and the deterministic schedule-explorer suite
#            (ctest -R race, plus the Transfer edge cases under the shims).
#   lockdep  lock-order analysis gate: the ca::lockdep suite on the CA_RACE
#            build (ctest -R lockdep — unit, hazard, and graph tests), the
#            checker self-tests, then `tools/manifest_check.py locks` with
#            the CA_LOCKDEP_DUMP emitted by the graph test: the manifest vs
#            annotations vs runtime-graph diffs and the generated lock
#            table in docs/CONCURRENCY.md.
#   ptrprov  pointer-provenance gate: the ca::ptrprov suite on the CA_RACE
#            build (ctest -R ptrprov — runtime, hazard-explorer, and
#            sanctioned-route tests), the checker self-tests, then
#            `tools/manifest_check.py prov` with the CA_PTRPROV_DUMP emitted
#            by the route test: the manifest vs source vs runtime-site
#            diffs and the generated provenance table in docs/CONCURRENCY.md.
#   multitenant  shared-manager concurrency gate: the multi-tenant suite
#            (semantics + per-tenant accounting + plain-thread concurrency,
#            tests/dm/multitenant_test.cpp) under the TSan build (asan ran
#            it and the K=4 shared-manager bench smoke under ASan), and the
#            cross-tenant hazard scenarios under the CA_RACE schedule
#            explorer (flagged-then-fixed across >=1000 distinct schedules).
#   comm     data-parallel comm gate: the comm suite (interconnect cost
#            models, CommEngine, dp::Trainer, determinism) under the TSan
#            build (asan ran it and the bucketed-allreduce bench smoke under
#            ASan), and the allreduce lifecycle hazards (bucket reuse
#            before reduce complete, free while on wire) under the CA_RACE
#            schedule explorer (flagged-then-fixed across >=1000 distinct
#            schedules).
#   kparity  kernel-parity: the fast compute-kernel tier vs the scalar
#            reference kernels (ctest -R kparity) under the CA_RACE build
#            (asan ran it under ASan), so the blocked GEMM / im2col /
#            parallel elementwise paths are proven numerically correct and
#            race-free with CA_NATIVE=OFF (the portable codegen CI ships).
#   simd     runtime-dispatch gate: the kernel-parity and simd suites on
#            the ASan build at CA_ISA=scalar AND at the highest level the
#            host supports (so the AVX2/AVX-512 GEMM tiles and NT-store
#            copy kernels are proven byte/tolerance-correct under ASan at
#            every dispatch tier), then the NT-writeback hazard scenario
#            plus the simd suite under the CA_RACE shims.  Skip-aware: on
#            a host without AVX2 only the scalar half runs.
#   bench    the repository benchmark's self-tests
#            (perfbench/test_perfbench.py: the twolm access identity,
#            traced-vs-untraced reproduction and same-seed determinism on
#            the smoke shapes).  Every BENCH-emitting bench and
#            table3_models already ran end to end on tiny shapes as the
#            asan stage's bench-smoke tests; the seven figure binaries stay
#            outside ctest and are checked by byte-identical stdout.
#   tidy     clang-tidy over src/ with the repo's .clang-tidy profile.
#   lint     tools/ca_lint.py repository rules (byte-copy routing,
#            wall-clock ban, DataManager audit boundaries, kernel scratch
#            routing, intrusive bin-link confinement), preceded by the
#            linter's own --self-test.
#
# asan always runs first: it is the shared baseline and builds every
# target the later stages run.  With no --only every stage runs;
# --only <stage> runs that one stage after asan, and an unknown stage
# name exits 2.
#
# Exits non-zero on the first finding of a stage that ran.  A selected
# stage whose toolchain is not installed (e.g. clang-tidy on a gcc-only
# box) emits a machine-readable "SKIPPED:<stage> <reason>" line rather
# than silently passing; --require-all turns any such skip into exit 3 so
# CI images that are supposed to carry the full toolchain cannot degrade
# quietly.  Stages left out by --only are not skips.
#
# Under GitHub Actions (GITHUB_ACTIONS set) the file:line findings of the
# linter stages are re-emitted as ::error annotations so they surface on
# the PR diff.
#
# Usage: tools/check.sh [--jobs N] [--require-all] [--only STAGE]
# Stages: asan tsan race lockdep ptrprov multitenant comm kparity simd
#         bench tidy lint
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"
STAGES=(asan tsan race lockdep ptrprov multitenant comm kparity simd bench
        tidy lint)
ONLY=""
REQUIRE_ALL=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --jobs) JOBS="${2:?--jobs requires a value}"; shift 2 ;;
    --require-all) REQUIRE_ALL=1; shift ;;
    --only)
      ONLY="${2:?--only requires a stage name}"
      if [[ " ${STAGES[*]} " != *" $ONLY "* ]]; then
        echo "unknown stage: $ONLY (stages: ${STAGES[*]})" >&2
        exit 2
      fi
      shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done
# selected <stage>: every stage runs unless --only named another one.
selected() {
  [[ -z "$ONLY" || "$ONLY" == "$1" ]]
}

note() { printf '\n==== %s ====\n' "$*"; }
# Re-emit `path:line: message` findings as GitHub Actions ::error
# annotations (in addition to the plain lines) when running under GHA.
annotate() {
  if [[ -n "${GITHUB_ACTIONS:-}" ]]; then
    sed -E 's|^([^: ]+):([0-9]+): (.*)$|&\n::error file=\1,line=\2::\3|'
  else
    cat
  fi
}
fail=0
skipped=()
skip() {  # skip <stage> <reason...>
  local stage="$1"; shift
  skipped+=("$stage")
  printf 'SKIPPED:%s %s\n' "$stage" "$*"
}

# --- asan: ASan + UBSan, full suite, audit hooks armed ------------------------
note "asan: ASan+UBSan Debug build (CA_AUDIT_ENABLED) + full ctest"
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCA_SANITIZE=address,undefined \
  -DCA_WERROR=ON > /dev/null
cmake --build build-asan -j "$JOBS"
( cd build-asan && ctest -j "$JOBS" --output-on-failure )

# --- tsan: the threaded substrate ---------------------------------------------
if selected tsan; then
  note "tsan: thread pool + copy engine + async mover tests"
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCA_SANITIZE=thread \
    -DCA_WERROR=OFF > /dev/null
  cmake --build build-tsan -j "$JOBS" --target test_util test_mem test_dm
  ( cd build-tsan && ctest -R 'ThreadPool|CopyEngine|Async|TransferEdge|Latch' \
      --output-on-failure )
fi

# --- race: deterministic schedule exploration under the instrumented shims ----
if selected race; then
  note "race: CA_RACE=ON build + schedule-explorer suite (ctest -R race)"
  cmake -B build-race -S . -DCA_RACE=ON -DCA_WERROR=OFF > /dev/null
  cmake --build build-race -j "$JOBS" --target test_race test_mem test_util
  ( cd build-race && ctest -R 'race\.|TransferEdge|Latch' --output-on-failure )
fi

# --- lockdep: lock-order analysis gate ----------------------------------------
if selected lockdep; then
  if command -v python3 > /dev/null 2>&1; then
    note "lockdep: ca::lockdep suite on the CA_RACE build (ctest -R lockdep)"
    # Self-contained under --only lockdep (CI runs it as its own job);
    # CA_RACE implies CA_LOCKDEP_ENABLED and arms the schedule explorer
    # the hazard scenarios need.
    cmake -B build-race -S . -DCA_RACE=ON -DCA_WERROR=OFF > /dev/null
    cmake --build build-race -j "$JOBS" --target test_lockdep
    ( cd build-race && ctest -R 'lockdep\.' --output-on-failure )

    note "lockdep: checker self-tests + manifest vs annotations vs runtime graph"
    if ! python3 tools/manifest_check.py --self-test; then
      fail=1
    fi
    # The graph test re-runs the sanctioned workload and dumps the observed
    # acquisition-order graph; the checker then diffs manifest <-> source
    # annotations and manifest <-> runtime graph, both directions, and
    # checks the generated lock table.
    LOCKDEP_DUMP="$(pwd)/build-race/lockdep_graph.json"
    ( cd build-race && CA_LOCKDEP_DUMP="$LOCKDEP_DUMP" \
        ctest -R 'lockdep\.LockdepGraph\.' --output-on-failure )
    if ! python3 tools/manifest_check.py locks --dump "$LOCKDEP_DUMP" \
        | annotate; then
      fail=1
    fi
  else
    skip lockdep "python3 not installed"
  fi
fi

# --- ptrprov: pointer-provenance & pin-discipline gate ------------------------
if selected ptrprov; then
  if command -v python3 > /dev/null 2>&1; then
    note "ptrprov: ca::ptrprov suite on the CA_RACE build (ctest -R ptrprov)"
    # Self-contained under --only ptrprov (CI runs it as its own job);
    # CA_RACE implies CA_PTRPROV_ENABLED and arms the schedule explorer
    # the hazard scenarios need.
    cmake -B build-race -S . -DCA_RACE=ON -DCA_WERROR=OFF > /dev/null
    cmake --build build-race -j "$JOBS" --target test_ptrprov
    ( cd build-race && ctest -R 'ptrprov\.' --output-on-failure )

    note "ptrprov: checker self-tests + manifest vs source vs runtime sites"
    if ! python3 tools/manifest_check.py --self-test; then
      fail=1
    fi
    # The route test re-runs the sanctioned workloads and dumps the
    # observed accessor sites; the checker then diffs manifest <->
    # source scan and manifest <-> runtime sites, both directions, and
    # checks the generated provenance table.
    PTRPROV_DUMP="$(pwd)/build-race/prov_sites.json"
    ( cd build-race && CA_PTRPROV_DUMP="$PTRPROV_DUMP" \
        ctest -R 'ptrprov\.PtrprovRoutes\.DumpObservedSitesWhenRequested' \
        --output-on-failure )
    if ! python3 tools/manifest_check.py prov --dump "$PTRPROV_DUMP" \
        | annotate; then
      fail=1
    fi
  else
    skip ptrprov "python3 not installed"
  fi
fi

# --- multitenant: shared-manager concurrency gate -----------------------------
if selected multitenant; then
  note "multitenant: suite under TSan"
  # Self-contained under --only multitenant (CI runs it as its own job).
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCA_SANITIZE=thread \
    -DCA_WERROR=OFF > /dev/null
  cmake --build build-tsan -j "$JOBS" --target test_multitenant
  ( cd build-tsan && ctest -R 'multitenant\.' --output-on-failure )

  note "multitenant: cross-tenant hazards under the CA_RACE schedule explorer"
  # Self-contained without the race stage; CA_RACE arms the explorer the
  # flagged-then-fixed hazard scenarios need (>=1000 distinct schedules).
  cmake -B build-race -S . -DCA_RACE=ON -DCA_WERROR=OFF > /dev/null
  cmake --build build-race -j "$JOBS" --target test_multitenant
  ( cd build-race && ctest -R 'multitenant\.' --output-on-failure )
fi

# --- comm: data-parallel allreduce gate ---------------------------------------
if selected comm; then
  note "comm: suite under TSan"
  # Self-contained under --only comm (CI runs it as its own job).
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCA_SANITIZE=thread \
    -DCA_WERROR=OFF > /dev/null
  cmake --build build-tsan -j "$JOBS" --target test_comm
  ( cd build-tsan && ctest -R '^comm\.' --output-on-failure )

  note "comm: allreduce lifecycle hazards under the CA_RACE schedule explorer"
  # Self-contained without the race stage; CA_RACE arms the explorer the
  # flagged-then-fixed hazard scenarios need (>=1000 distinct schedules).
  cmake -B build-race -S . -DCA_RACE=ON -DCA_WERROR=OFF > /dev/null
  cmake --build build-race -j "$JOBS" --target test_comm
  ( cd build-race && ctest -R '^comm\.' --output-on-failure )
fi

# --- kparity: fast kernel tier vs the scalar reference ------------------------
if selected kparity; then
  # Configures build-race itself so this stage is self-contained under
  # --only kparity (CI runs it as its own job).
  # CA_NATIVE stays OFF: parity must hold for the portable codegen.
  note "kparity: kernel parity suite under CA_RACE shims"
  cmake -B build-race -S . -DCA_RACE=ON -DCA_WERROR=OFF > /dev/null
  cmake --build build-race -j "$JOBS" --target test_kernels
  ( cd build-race && ctest -R 'kparity\.' --output-on-failure )
fi

# --- simd: dispatch levels, NT copy path, race coverage -----------------------
if selected simd; then
  note "simd: kparity + simd suites under ASan at CA_ISA=scalar"
  ( cd build-asan && CA_ISA=scalar ctest -R 'kparity\.|simd\.' \
      --output-on-failure )
  # The CA_ISA env pins the entry level; the in-process sweep tests still
  # cover every supported level inside each run.
  if grep -qm1 avx2 /proc/cpuinfo 2>/dev/null; then
    note "simd: kparity + simd suites under ASan at CA_ISA=native"
    ( cd build-asan && CA_ISA=native ctest -R 'kparity\.|simd\.' \
        --output-on-failure )
    note "simd: NT-writeback hazard + simd suite under CA_RACE shims"
    cmake -B build-race -S . -DCA_RACE=ON -DCA_WERROR=OFF > /dev/null
    cmake --build build-race -j "$JOBS" --target test_race test_simd
    ( cd build-race && ctest -R 'race\.RaceHazards\.NtWriteback|simd\.' \
        --output-on-failure )
  else
    skip simd-native "host CPU lacks AVX2; scalar half ran"
  fi
fi

# --- bench smoke ---------------------------------------------------------------
if selected bench; then
  note "bench: perfbench self-tests (builds into .bench_build/)"
  python3 perfbench/test_perfbench.py
fi

# --- tidy: clang-tidy over src/ -------------------------------------------------
if selected tidy; then
  if command -v clang-tidy > /dev/null 2>&1; then
    note "tidy: clang-tidy over src/ (profile: .clang-tidy, warnings are errors)"
    cmake -B build-tidy -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
    mapfile -t sources < <(find src -name '*.cpp' | sort)
    if ! clang-tidy -p build-tidy --quiet "${sources[@]}"; then
      fail=1
    fi
  else
    skip tidy "clang-tidy not installed"
  fi
fi

# --- ca_lint: repository rules ----------------------------------------------------
if selected lint; then
  if command -v python3 > /dev/null 2>&1; then
    note "ca_lint: repository rules (tools/ca_lint.py)"
    if ! python3 tools/ca_lint.py --self-test; then
      fail=1
    fi
    if ! python3 tools/ca_lint.py | annotate; then
      fail=1
    fi
  else
    skip lint "python3 not installed"
  fi
fi

if [[ "$fail" -ne 0 ]]; then
  note "check.sh: FINDINGS — see above"
  exit 1
fi
if [[ "${#skipped[@]}" -gt 0 ]]; then
  note "check.sh: clean, but ${#skipped[@]} stage(s) skipped: ${skipped[*]}"
  if [[ "$REQUIRE_ALL" -eq 1 ]]; then
    echo "check.sh: --require-all set and stages were skipped" >&2
    exit 3
  fi
  exit 0
fi
note "check.sh: all stages clean"
