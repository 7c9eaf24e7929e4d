#!/usr/bin/env python3
"""Unreached-code gate: library code that no program links fails CI.

Builds the tree at -O0 (so nothing is inlined away) with
-ffunction-sections -fdata-sections and -Wl,--gc-sections, tests off and
fuzz replay drivers on, plus bench/e2e's dap_e2e through
-DCMAKE_PROJECT_INCLUDE=bench/e2e/e2e.cmake. Then it compares two sets
of `dap::` names:

  defined  every strong (T/D/B/R) symbol in a src/*/libdap_*.a
  reached  every `dap::` symbol the linker kept in a program: each
           bench binary, each example, each fuzz/*_replay and dap_e2e

A defined symbol that no program kept is dead library code. It fails
the check unless scripts/unreached_allowlist.txt names it with a reason
(test oracles and test hooks the unit tests call on purpose). An
allowlist entry that is reached again, or no longer defined, is stale
and fails the check too, so the list only ever describes the tree.

Symbols are compared exactly (by mangled name), then reported without
their parameter lists (`c++filt -p`) and ABI tags: one allowlist entry
covers every unreached overload of that name.

Usage:
  scripts/unreached.py                 # configure, build, scan
                                       # (~20 s cold on 4 cores)
  scripts/unreached.py --build-dir D   # use (and reuse) build dir D
  scripts/unreached.py --self-test     # check the scanner on canned nm output

Exit status: 0 clean, 1 findings, 2 usage or tool error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ALLOWLIST = ROOT / "scripts" / "unreached_allowlist.txt"
DEFAULT_BUILD = ROOT / "build-unreached"

# nm type letters of strong definitions: text, initialized data, bss,
# read-only data. Weak (W/V), local (lowercase) and undefined symbols are
# out: an inline or template body is weak and belongs to whoever uses it.
STRONG_TYPES = frozenset("TDBR")


def configure_and_build(build: pathlib.Path) -> bool:
    """Configures and builds `build`; prints the log and returns False
    when either step fails."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    for command in (
            ["cmake", "-S", str(ROOT), "-B", str(build), *generator,
             "-DCMAKE_BUILD_TYPE=Debug",
             "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
             "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
             "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
             "-DDAP_BUILD_TESTS=OFF",
             "-DDAP_BUILD_BENCHES=ON",
             "-DDAP_BUILD_EXAMPLES=ON",
             "-DDAP_BUILD_FUZZERS=ON",
             "-DCMAKE_PROJECT_INCLUDE="
             f"{ROOT / 'bench' / 'e2e' / 'e2e.cmake'}"],
            ["cmake", "--build", str(build)]):
        proc = subprocess.run(command, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            print(f"unreached: '{' '.join(command[:2])}' failed",
                  file=sys.stderr)
            return False
    return True


def libraries(build: pathlib.Path) -> list[pathlib.Path]:
    return sorted((build / "src").glob("*/libdap_*.a"))


def programs(build: pathlib.Path) -> list[pathlib.Path]:
    found = [p for d in ("bench", "examples") for p in (build / d).iterdir()
             if p.is_file() and p.stat().st_mode & 0o111]
    found += list((build / "fuzz").glob("*_replay"))
    found.append(build / "dap_e2e")
    return sorted(found)


def nm(path: pathlib.Path) -> str:
    return subprocess.run(["nm", "--defined-only", "-P", str(path)],
                          check=True, capture_output=True, text=True).stdout


def parse_nm(text: str, strong_only: bool) -> set[str]:
    """Mangled C++ symbol names from `nm -P` output."""
    names = set()
    for line in text.splitlines():
        fields = line.split()
        # Archive member headers ("lib.a[x.o]:") have fewer fields.
        if len(fields) < 2 or not fields[0].startswith("_Z"):
            continue
        if strong_only and fields[1] not in STRONG_TYPES:
            continue
        names.add(fields[0])
    return names


def source_names(mangled: set[str]) -> set[str]:
    """`dap::` names of `mangled`, without parameters and ABI tags."""
    if not mangled:
        return set()
    out = subprocess.run(["c++filt", "-p"], input="\n".join(mangled) + "\n",
                         check=True, capture_output=True, text=True).stdout
    # ABI tags ("to_hex[abi:cxx11]") are not part of the source name.
    return {re.sub(r"\[abi:\w+\]", "", name) for name in out.splitlines()
            if name.startswith("dap::")}


def scan(library_nm: list[str], program_nm: list[str]) -> set[str]:
    """Names of the strong library symbols that no program links."""
    defined = set().union(*(parse_nm(t, True) for t in library_nm))
    kept = set().union(*(parse_nm(t, False) for t in program_nm))
    return source_names(defined - kept)


def read_allowlist(text: str) -> tuple[dict[str, str], list[str]]:
    """`name  # reason` lines; returns entries and format errors."""
    entries: dict[str, str] = {}
    errors = []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition("#")
        name, reason = name.strip(), reason.strip()
        if not reason:
            errors.append(f"line {number}: '{name}' has no '# reason'")
        elif name in entries:
            errors.append(f"line {number}: '{name}' listed twice")
        else:
            entries[name] = reason
    return entries, errors


def judge(unreached: set[str], allowed: dict[str, str]) -> list[str]:
    findings = [f"unreached: {name} (no program links it; delete it or "
                f"allowlist it with a reason)"
                for name in sorted(unreached - allowed.keys())]
    findings += [f"stale allowlist entry: {name} (now reached or no longer "
                 f"defined; remove it)"
                 for name in sorted(allowed.keys() - unreached)]
    return findings


# ----------------------------------------------------------------- self-test

# `nm --defined-only -P` of a two-member archive and of one program.
_LIB_NM = """\
libdap_x.a[a.cc.o]:
_ZN3dap1x4usedEv T 0000000000000000 000000000000000b
_ZN3dap1x4halfEv T 0000000000000000 000000000000000b
_ZN3dap1x4halfEi T 0000000000000000 000000000000000b
_ZN3dap1x4deadEv T 0000000000000000 000000000000000b
_ZN3dap1x4deadEi T 0000000000000000 000000000000000b
_ZN3dap1x6oracleEv T 0000000000000000 000000000000000b
_ZN3dap1x6inlineEv W 0000000000000000 000000000000000b
_ZN3dap1x12_GLOBAL__N_14helpEv t 0000000000000000 000000000000000b
_ZN3dap1x6kTableE R 0000000000000000 0000000000000010
_ZN3dap1x6to_hexB5cxx11Ev T 0000000000000000 000000000000000b
_ZN3foo4deadEv T 0000000000000000 000000000000000b
libdap_x.a[b.cc.o]:
_ZN3dap1x7counterE B 0000000000000000 0000000000000008
"""
_PROGRAM_NM = """\
_ZN3dap1x4usedEv T 0000000000001000 000000000000000b
_ZN3dap1x4halfEv T 0000000000001010 000000000000000b
_ZN3dap1x7counterE B 0000000000004000 0000000000000008
_ZN3dap1x6inlineEv W 0000000000001100 000000000000000b
main T 0000000000001200 0000000000000020
"""


def self_test() -> int:
    failures = []

    def expect(label, got, want):
        if got != want:
            failures.append(f"{label}: got {got!r}, want {want!r}")

    unreached = scan([_LIB_NM], [_PROGRAM_NM])
    # Unreached overloads fold into one name, and one unreached overload
    # of a reached name is reported; ABI tags drop; weak, local and
    # non-dap symbols are out; a reached data symbol is not reported.
    expect("scan", unreached,
           {"dap::x::dead", "dap::x::half", "dap::x::oracle",
            "dap::x::kTable", "dap::x::to_hex"})

    allowed, errors = read_allowlist(
        "# comment\n\ndap::x::oracle  # test oracle\n"
        "dap::x::kTable  # golden table\n"
        "dap::x::to_hex  # test helper\n"
        "dap::x::half  # test hook\n")
    expect("allowlist parse errors", errors, [])
    expect("findings", judge(unreached, allowed),
           ["unreached: dap::x::dead (no program links it; delete it or "
            "allowlist it with a reason)"])

    allowed["dap::x::used"] = "reached"
    allowed["dap::x::gone"] = "deleted"
    stale = [f for f in judge(unreached, allowed) if f.startswith("stale")]
    expect("stale entries", len(stale), 2)
    expect("stale names", all(("dap::x::used" in s or "dap::x::gone" in s)
                              for s in stale), True)

    _, errors = read_allowlist("dap::x::oracle\ndap::x::a # r\n"
                               "dap::x::a # r\n")
    expect("missing reason and duplicate", len(errors), 2)

    expect("clean", judge({"dap::x::oracle"}, {"dap::x::oracle": "r"}), [])

    for f in failures:
        print(f"self-test FAILED: {f}")
    if not failures:
        print("unreached self-test: all cases pass")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--build-dir", type=pathlib.Path,
                        default=DEFAULT_BUILD)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    for tool in ("nm", "c++filt", "cmake"):
        if shutil.which(tool) is None:
            print(f"unreached: '{tool}' not found", file=sys.stderr)
            return 2
    build = args.build_dir.resolve()
    if not configure_and_build(build):
        return 2
    libs = libraries(build)
    if not libs:
        print(f"unreached: no libdap_*.a under {build}/src", file=sys.stderr)
        return 2
    progs = programs(build)
    missing = [p for p in progs if not p.exists()]
    if missing:
        print(f"unreached: program not built: {missing[0]}", file=sys.stderr)
        return 2

    unreached = scan([nm(p) for p in libs], [nm(p) for p in progs])
    allowed, errors = read_allowlist(ALLOWLIST.read_text())
    findings = [f"{ALLOWLIST.name}: {e}" for e in errors]
    findings += judge(unreached, allowed)
    for finding in findings:
        print(finding)
    print(f"unreached: {len(libs)} libraries, {len(progs)} programs, "
          f"{len(unreached)} unreached names ({len(allowed)} allowlisted), "
          f"{len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
