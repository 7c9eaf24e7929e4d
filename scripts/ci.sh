#!/usr/bin/env bash
# CI pipeline (also runnable locally). Stages:
#   1. warnings-as-errors build (-DDAP_WERROR=ON) + full ctest suite,
#      which includes the lint_self_test / lint_tree entries and the
#      fuzz corpus-replay drivers.
#   2. scripts/lint.py over src/ (repo-specific rules), run directly so a
#      missing python3-in-ctest configuration cannot hide it.
#   3. Unreached-code gate: an -O0 section-GC build (build-unreached/)
#      fails on any library symbol no program links that
#      scripts/unreached_allowlist.txt does not name.
#   4. Thread-safety gate: guarded-fields structural check always, plus
#      clang -Werror=thread-safety analysis when clang++ is installed;
#      the negative self-test proves the gate fails on a stripped
#      annotation.
#   5. clang-tidy over the exported compilation database when installed
#      (run-clang-tidy preferred; skipped gracefully otherwise — the
#      container ships gcc only).
#   6. Full ctest suite under ASan+UBSan with contracts at FATAL.
#   7. End-to-end benchmark (bench/e2e): every workload for 1 s with its
#      output checks, then the 1-vs-4-thread outcome-digest check.
set -euo pipefail
cd "$(dirname "$0")/.."

GEN=()
command -v ninja >/dev/null 2>&1 && GEN=(-G Ninja)

echo "== [1/7] build (DAP_WERROR=ON) + ctest =="
cmake -B build-ci -S . "${GEN[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDAP_WERROR=ON
cmake --build build-ci
ctest --test-dir build-ci --output-on-failure

echo "== [2/7] scripts/lint.py =="
python3 scripts/lint.py --self-test
python3 scripts/lint.py src

echo "== [3/7] unreached-code gate =="
python3 scripts/unreached.py --self-test
python3 scripts/unreached.py

echo "== [4/7] thread-safety gate =="
python3 scripts/thread_safety_check.py
python3 scripts/thread_safety_selftest.py

echo "== [5/7] clang-tidy =="
if command -v clang-tidy >/dev/null 2>&1; then
  # compile_commands.json is exported by every configure (top-level
  # CMakeLists sets CMAKE_EXPORT_COMPILE_COMMANDS).
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -quiet -p build-ci '(src|fuzz)/.*\.cc$'
  else
    mapfile -t tidy_sources < <(find src fuzz -name '*.cc' | sort)
    clang-tidy -p build-ci --quiet "${tidy_sources[@]}"
  fi
else
  echo "clang-tidy not installed — skipping (config: .clang-tidy)"
fi

echo "== [6/7] ASan+UBSan full suite, contracts fatal =="
cmake -B build-ci-asan -S . "${GEN[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDAP_SANITIZE=address,undefined \
  -DDAP_CONTRACTS=FATAL \
  -DDAP_BUILD_BENCHES=OFF -DDAP_BUILD_EXAMPLES=OFF
cmake --build build-ci-asan
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-ci-asan --output-on-failure

echo "== [7/7] end-to-end benchmark: smoke + determinism =="
python3 bench/e2e/run.py --smoke
python3 bench/e2e/run.py --check-determinism

echo "== ci passed =="
