#!/usr/bin/env python3
"""Negative self-check for the thread-safety gate.

Copies src/common into a scratch tree, asserts the gate passes on the
pristine copy, then strips a single DAP_GUARDED_BY annotation from a
mutex-owning class and asserts the gate now FAILS. This proves the gate
has teeth in every environment: without clang, removing an annotation
must trip the structural guarded-fields rule; with clang, the same
doctored tree also silently loses analysis coverage for that field,
which is exactly the regression the structural tier exists to catch.
"""

import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
DRIVER = ROOT / "scripts" / "thread_safety_check.py"

# The seeded mutation: the worker list of the parallel engine's
# WorkerPool class loses its guard annotation.
TARGET = "src/common/parallel.cc"
ANNOTATION = "DAP_GUARDED_BY(mu_)"


def run_driver(root: pathlib.Path) -> int:
    proc = subprocess.run(
        [sys.executable, str(DRIVER), "--root", str(root)],
        capture_output=True, text=True)
    return proc.returncode


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        scratch = pathlib.Path(tmp)
        shutil.copytree(ROOT / "src" / "common", scratch / "src" / "common")

        if run_driver(scratch) != 0:
            print("thread-safety self-test FAIL: pristine copy of "
                  "src/common did not pass the gate")
            return 1

        doctored = scratch / TARGET
        text = doctored.read_text()
        if ANNOTATION not in text:
            print(f"thread-safety self-test FAIL: {TARGET} no longer "
                  f"contains '{ANNOTATION}' — update this self-test's "
                  "seeded mutation")
            return 1
        doctored.write_text(text.replace(ANNOTATION, "", 1))

        if run_driver(scratch) == 0:
            print("thread-safety self-test FAIL: stripping one "
                  f"{ANNOTATION} did not fail the gate")
            return 1

    print("thread-safety self-test: pristine copy passes, stripping one "
          "annotation fails the gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
