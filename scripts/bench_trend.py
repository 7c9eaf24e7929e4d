#!/usr/bin/env python3
"""Regression gate for bench runs: diffs a run-registry directory against
the checked-in BENCH_*.json trajectory and exits nonzero when the run got
*worse* in a way the paper's claims care about.

A "run" is the bench_out/runs/<run_id>/ directory every bench binary
writes (manifest.json, schema dap.run_manifest.v1, next to metrics.json,
schema dap.metrics.v2). The baseline is a report from
scripts/bench_baseline.py whose entries carry a "trajectory" object — the
serial reference run's counters, rates and histogram p99s.

Seven gates, in order of severity:

  1. forged authentication: any counter whose name contains
     "forged_accepted" must be exactly 0. A forged announce surviving
     verification is a correctness hole, not a perf regression — no
     tolerance, no baseline needed.
  2. auth-rate drop: derived success ratios (see RATIOS) may not fall
     more than --auth-tol (absolute, default 0.01) below the baseline
     trajectory's ratio.
  3. p99 latency regression: per-histogram p99 may not exceed the
     baseline p99 beyond a tolerance band. Sim-time histograms (name
     contains "hop_latency") are deterministic, so the band is tight
     (--sim-p99-rel, default 0.05); wall-clock timer histograms vary
     with host load, so the band is loose (--wall-p99-rel, default 4.0,
     i.e. fail only on a 5x blowup). A baseline histogram missing from
     the run fails the gate unless its name is on RETIRED: a gate must
     not disappear without notice. A present histogram with count 0 is
     skipped (the instrument exists but saw no calls this run).
  4. bounded relay memory: whenever the run exports the fleet guard
     gauges, fleet.guard.peak_entries must not exceed
     fleet.guard.capacity — the O(capacity) relay data plane is a hard
     invariant, gated without a baseline like gate 1.
  5. guard ceilings: counters that measure collateral damage from the
     ingress guard (fleet.guard.false_drop — authentic packets shed by
     a bandwidth budget) may not exceed the baseline trajectory's value
     by more than --guard-tol (relative, default 0.25).
  6. crypto throughput: the batched-backend speedup gauges
     (bench.crypto.*_speedup) may not fall more than --throughput-tol
     (relative, default 0.25) below the baseline trajectory's value.
     Speedups are ratios of two in-process measurements on the same
     host, so unlike absolute hashes/sec they are stable across CI
     hosts; a >10% drop means the multi-lane kernels or the HMAC
     midstate caching regressed. A chain_walk_<backend>_speedup row
     missing from the run is skipped (and the skip printed) only when
     the run's metrics footer lists the host's SHA-256 backends
     ("sha256_backends") and that backend is not among them: a host
     without SHA-NI cannot produce the shani row. A row whose backend
     the host has still fails.
  7. ESS convergence: any gauge whose name contains "ess_gap" (the
     adaptive attacker's |empirical - oracle| attack-share gap from
     bench/game_loop and the strategy chaos cases) must stay at or
     below --ess-gap-max (default 0.2). Like gate 1 it needs no
     baseline: the offline replicator solution is the reference. The
     companion strategy.forged_accepted counter rides gate 1 — a
     forged authentication under an adaptive/Sybil adversary fails
     hard regardless of the gap.

Baseline entries are matched to runs by scenario id first (the
manifest's "scenario" field, e.g. "fleet_scale:smoke"), falling back to
(bench name, args). A run with no matching baseline entry fails — a
silently ungated bench is itself a regression in coverage.

Stdlib only. Usage:

  scripts/bench_trend.py --baseline BENCH_fleet.json \
      --run bench_out/runs/<run_id> [--run ...] [--auth-tol X]
      [--sim-p99-rel X] [--wall-p99-rel X]
  scripts/bench_trend.py --self-test

Exits 0 when every run passes every gate; 1 otherwise (or on malformed
inputs). --self-test exercises the gates against synthetic runs doctored
to regress in each dimension and must itself exit 0.
"""

import argparse
import json
import pathlib
import sys
import tempfile

# Derived success ratios gated against the baseline trajectory. Each
# value is (numerator counter, denominator counter); the ratio exists in
# a metrics document when the denominator is present and positive.
RATIOS = {
    "dap.auth_rate": ("dap.strong_auth_success", "dap.reveals_received"),
    "teslapp.auth_rate": ("teslapp.authenticated", "teslapp.reveals_received"),
    "fleet.auth_rate": ("fleet.auths", "fleet.auth_opportunities"),
}

# Histograms recording *simulated* time are bitwise deterministic and get
# the tight p99 band; everything else is a wall-clock timer.
SIM_TIME_MARKER = "hop_latency"

# Counters gated against a baseline *ceiling* (gate 5): going UP is the
# regression. fleet.guard.false_drop counts authentic packets shed by a
# relay's bandwidth budget — collateral the relay-hardening tier must
# keep bounded.
GUARD_CEILINGS = ["fleet.guard.false_drop"]

# Histograms deliberately removed from the program, by name. A baseline
# p99 for a name listed here is no longer gated; every other baseline
# histogram must still be exported by the run. Add a name only together
# with the change that retires the instrument, and say what replaces it.
RETIRED = [
    # crypto_throughput's one-shot SHA-256 section, removed with the
    # batched sha256_many API. SHA-256 itself is still timed through the
    # hmac and chain_walk sections (bench.hmac_us, bench.chain_walk_us).
    "bench.sha256_us",
]

# Wall-clock p99s below this many microseconds are pure scheduler noise;
# skip the relative check for them.
WALL_P99_FLOOR_US = 50.0

# Gauges gated as host-stable speedup ratios (gate 6): every
# bench.crypto.*_speedup gauge present in the baseline trajectory must
# hold up in the run.
SPEEDUP_PREFIX = "bench.crypto."
SPEEDUP_SUFFIX = "_speedup"
# Per-backend chain-walk rows: bench.crypto.chain_walk_<backend>_speedup.
CHAIN_WALK_PREFIX = SPEEDUP_PREFIX + "chain_walk_"


def load_json(path):
    try:
        return json.loads(pathlib.Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise SystemExit(f"bench_trend: cannot read {path}: {err}")


def load_run(run_dir):
    """Returns (manifest, metrics) for one run-registry directory."""
    run_dir = pathlib.Path(run_dir)
    manifest = load_json(run_dir / "manifest.json")
    metrics = load_json(run_dir / "metrics.json")
    return manifest, metrics


def ratios_of(counters):
    """Derived ratios computable from a counter map (RATIOS table)."""
    out = {}
    for name, (num, den) in sorted(RATIOS.items()):
        denominator = counters.get(den, 0)
        if denominator > 0:
            out[name] = counters.get(num, 0) / denominator
    return out


def match_entry(baseline, manifest):
    """Finds the baseline entry for a run. The scenario id is the
    authoritative identity when the manifest carries one — a scenario
    the baseline has never seen must NOT silently borrow another
    entry's band. Only scenario-less manifests fall back to matching
    (bench name, args)."""
    scenario = manifest.get("scenario", "")
    entries = baseline.get("benches", [])
    if scenario:
        for entry in entries:
            if entry.get("scenario") == scenario:
                return entry
        return None
    for entry in entries:
        if (entry.get("name") == manifest.get("bench")
                and entry.get("args", []) == manifest.get("args", [])[1:]):
            return entry
    return None


def gate_forged(label, counters):
    return [
        f"{label}: FORGED AUTH: counter {name} = {value} (must be 0)"
        for name, value in sorted(counters.items())
        if "forged_accepted" in name and value != 0
    ]


def gate_guard_memory(label, gauges):
    """Gate 4: relay memory bounded by construction, no baseline needed."""
    capacity = gauges.get("fleet.guard.capacity", 0)
    peak = gauges.get("fleet.guard.peak_entries", 0)
    if capacity > 0 and peak > capacity:
        return [
            f"{label}: RELAY MEMORY: fleet.guard.peak_entries {peak:g} "
            f"exceeds fleet.guard.capacity {capacity:g} — the bounded "
            f"ingress guard leaked"
        ]
    return []


def gate_ess_gap(label, gauges, gap_max):
    """Gate 7: adaptive-attacker ESS convergence, no baseline needed —
    the offline replicator solution is the reference."""
    return [
        f"{label}: ESS GAP: gauge {name} = {value:g} exceeds "
        f"--ess-gap-max {gap_max:g} — the adaptive attacker stopped "
        f"tracking the replicator equilibrium"
        for name, value in sorted(gauges.items())
        if "ess_gap" in name and isinstance(value, (int, float))
        and value > gap_max
    ]


def gate_guard_ceilings(label, base_counters, run_counters, rel):
    """Gate 5: guard collateral counters may not grow past the baseline."""
    failures = []
    for name in GUARD_CEILINGS:
        run_value = run_counters.get(name, 0)
        ceiling = base_counters.get(name, 0) * (1.0 + rel)
        if run_value > ceiling:
            failures.append(
                f"{label}: GUARD CEILING: {name} = {run_value} exceeds "
                f"baseline ceiling {ceiling:.1f} (band +{rel * 100:.0f}%)")
    return failures


def host_lacks_backend(name, host_backends):
    """True when `name` is a chain_walk_<backend> row and the run's
    footer lists the host's backends without that one."""
    if host_backends is None or not name.startswith(CHAIN_WALK_PREFIX):
        return False
    backend = name[len(CHAIN_WALK_PREFIX):-len(SPEEDUP_SUFFIX)]
    return backend not in host_backends


def gate_throughput(label, base_gauges, run_gauges, rel, host_backends=None):
    """Gate 6: batched-crypto speedup ratios may not sag below baseline."""
    failures = []
    for name, base in sorted(base_gauges.items()):
        if not (name.startswith(SPEEDUP_PREFIX)
                and name.endswith(SPEEDUP_SUFFIX)):
            continue
        if not isinstance(base, (int, float)) or base <= 0:
            continue
        run_value = run_gauges.get(name)
        if run_value is None and host_lacks_backend(name, host_backends):
            print(f"  [skip] {label}: {name} — the run host lacks this "
                  f"SHA-256 backend (host has {', '.join(host_backends)})")
            continue
        if run_value is None:
            failures.append(
                f"{label}: THROUGHPUT: {name} missing from run "
                f"(baseline {base:.2f}x) — speedup gauge gone")
            continue
        if run_value < base * (1.0 - rel):
            failures.append(
                f"{label}: THROUGHPUT: {name} dropped {base:.2f}x -> "
                f"{run_value:.2f}x (band -{rel * 100:.0f}%)")
    return failures


def gate_auth_rates(label, base_counters, run_counters, tol):
    failures = []
    base_rates = ratios_of(base_counters)
    run_rates = ratios_of(run_counters)
    for name, base_rate in sorted(base_rates.items()):
        run_rate = run_rates.get(name)
        if run_rate is None:
            failures.append(
                f"{label}: AUTH RATE: {name} missing from run "
                f"(baseline {base_rate:.4f}) — denominator counter gone")
            continue
        if run_rate < base_rate - tol:
            failures.append(
                f"{label}: AUTH RATE: {name} dropped {base_rate:.4f} -> "
                f"{run_rate:.4f} (tolerance {tol})")
    return failures


def gate_p99(label, base_p99s, run_hists, sim_rel, wall_rel):
    failures = []
    for name, base_p99 in sorted(base_p99s.items()):
        if base_p99 is None or base_p99 <= 0:
            continue
        run_hist = run_hists.get(name)
        if run_hist is None:
            if name not in RETIRED:
                failures.append(
                    f"{label}: P99 GATE LOST: baseline histogram {name} is "
                    f"missing from the run (list it in RETIRED if the "
                    f"instrument was removed on purpose)")
            continue
        if run_hist.get("count", 0) == 0:
            continue  # present but unused this run: not a latency regression
        run_p99 = run_hist.get("p99")
        if run_p99 is None:
            continue
        sim_time = SIM_TIME_MARKER in name
        rel = sim_rel if sim_time else wall_rel
        if not sim_time and max(base_p99, run_p99) < WALL_P99_FLOOR_US:
            continue
        if run_p99 > base_p99 * (1.0 + rel):
            kind = "sim-time" if sim_time else "wall-clock"
            failures.append(
                f"{label}: P99 REGRESSION ({kind}): {name} "
                f"{base_p99:.6g} -> {run_p99:.6g} us "
                f"(band +{rel * 100:.0f}%)")
    return failures


def check_run(baseline, run_dir, args):
    """Returns a list of failure strings for one run directory."""
    manifest, metrics = load_run(run_dir)
    label = manifest.get("scenario") or manifest.get("bench") or str(run_dir)
    counters = metrics.get("counters", {})

    failures = gate_forged(label, counters)
    failures += gate_guard_memory(label, metrics.get("gauges", {}))
    failures += gate_ess_gap(label, metrics.get("gauges", {}),
                             args.ess_gap_max)

    entry = match_entry(baseline, manifest)
    if entry is None:
        failures.append(
            f"{label}: NO BASELINE: no entry in {args.baseline} matches "
            f"scenario '{manifest.get('scenario', '')}' or bench "
            f"'{manifest.get('bench', '')}' — regenerate the baseline with "
            f"scripts/bench_baseline.py")
        return failures

    trajectory = entry.get("trajectory")
    if trajectory is None:
        failures.append(
            f"{label}: NO TRAJECTORY: baseline entry predates trajectory "
            f"recording (schema too old) — regenerate with "
            f"scripts/bench_baseline.py")
        return failures

    failures += gate_auth_rates(label, trajectory.get("counters", {}),
                                counters, args.auth_tol)
    failures += gate_guard_ceilings(label, trajectory.get("counters", {}),
                                    counters, args.guard_tol)
    failures += gate_p99(label, trajectory.get("histogram_p99", {}),
                         metrics.get("histograms", {}),
                         args.sim_p99_rel, args.wall_p99_rel)
    failures += gate_throughput(label, trajectory.get("gauges", {}),
                                metrics.get("gauges", {}),
                                args.throughput_tol,
                                metrics.get("sha256_backends"))
    return failures


# --------------------------------------------------------------------------
# Self-test: synthetic baseline + doctored runs, no binaries needed.

SELF_TEST_COUNTERS = {
    "dap.strong_auth_success": 950,
    "dap.reveals_received": 1000,
    "fleet.auths": 4700,
    "fleet.auth_opportunities": 5000,
    "fleet.forged_accepted": 0,
    "fleet.guard.false_drop": 4,
}

SELF_TEST_HISTS = {
    "fleet.hop_latency_us": {"count": 5000, "p99": 2400.0},
    "crypto.hmac_us": {"count": 9000, "p99": 12.0},
}

SELF_TEST_GAUGES = {
    "fleet.guard.peak_entries": 61.0,
    "fleet.guard.capacity": 64.0,
    "bench.crypto.sha256_avx2_speedup": 3.0,
    "bench.crypto.sha256_avx2_per_sec": 9.0e6,  # informational, not gated
    "strategy.ess_gap": 0.05,  # converged adaptive attacker
}


def _write_run(root, name, scenario, counters, hists, gauges=None,
               footer=None):
    run_dir = pathlib.Path(root) / name
    run_dir.mkdir(parents=True)
    (run_dir / "manifest.json").write_text(json.dumps({
        "schema": "dap.run_manifest.v1",
        "run_id": name,
        "bench": "fleet_scale",
        "scenario": scenario,
        "args": ["bench/fleet_scale", "--smoke"],
        "threads": 1,
    }))
    (run_dir / "metrics.json").write_text(json.dumps({
        "schema": "dap.metrics.v2",
        "counters": counters,
        "gauges": SELF_TEST_GAUGES if gauges is None else gauges,
        "histograms": hists,
        **(footer or {}),
    }))
    return run_dir


def self_test():
    failures = []

    def expect(case, run_dir, baseline_path, want_pass, want_marker=None):
        args = argparse.Namespace(baseline=str(baseline_path), auth_tol=0.01,
                                  sim_p99_rel=0.05, wall_p99_rel=4.0,
                                  guard_tol=0.25, throughput_tol=0.25,
                                  ess_gap_max=0.2)
        got = check_run(load_json(baseline_path), run_dir, args)
        if want_pass and got:
            failures.append(f"{case}: expected pass, got: {got}")
        elif not want_pass and not got:
            failures.append(f"{case}: expected failure, gates all passed")
        elif want_marker and not any(want_marker in f for f in got):
            failures.append(
                f"{case}: expected a '{want_marker}' failure, got: {got}")
        else:
            verdict = "passes" if want_pass else f"fails ({want_marker})"
            print(f"  [self-test] {case}: OK ({verdict})")

    with tempfile.TemporaryDirectory() as tmp:
        baseline_path = pathlib.Path(tmp) / "BENCH_test.json"
        baseline_path.write_text(json.dumps({
            "schema": "dap.bench_fleet.v2",
            "benches": [{
                "name": "fleet_scale",
                "args": ["--smoke"],
                "scenario": "fleet_scale:smoke",
                "status": "ok",
                "trajectory": {
                    "counters": SELF_TEST_COUNTERS,
                    "histogram_p99": {
                        n: h["p99"] for n, h in SELF_TEST_HISTS.items()
                    },
                    "gauges": SELF_TEST_GAUGES,
                },
            }],
        }))

        expect("identical run",
               _write_run(tmp, "r_ok", "fleet_scale:smoke",
                          SELF_TEST_COUNTERS, SELF_TEST_HISTS),
               baseline_path, want_pass=True)

        dropped = dict(SELF_TEST_COUNTERS, **{"fleet.auths": 4000})
        expect("auth-rate drop",
               _write_run(tmp, "r_auth", "fleet_scale:smoke",
                          dropped, SELF_TEST_HISTS),
               baseline_path, want_pass=False, want_marker="AUTH RATE")

        forged = dict(SELF_TEST_COUNTERS, **{"fleet.forged_accepted": 3})
        expect("forged authentication",
               _write_run(tmp, "r_forged", "fleet_scale:smoke",
                          forged, SELF_TEST_HISTS),
               baseline_path, want_pass=False, want_marker="FORGED AUTH")

        blowup = dict(SELF_TEST_HISTS)
        blowup["fleet.hop_latency_us"] = {"count": 5000, "p99": 2600.0}
        expect("sim-time p99 blowup",
               _write_run(tmp, "r_p99", "fleet_scale:smoke",
                          SELF_TEST_COUNTERS, blowup),
               baseline_path, want_pass=False, want_marker="P99 REGRESSION")

        wall_slow = dict(SELF_TEST_HISTS)
        wall_slow["crypto.hmac_us"] = {"count": 9000, "p99": 30.0}
        expect("wall-clock jitter within loose band",
               _write_run(tmp, "r_wall", "fleet_scale:smoke",
                          SELF_TEST_COUNTERS, wall_slow),
               baseline_path, want_pass=True)

        lost = {n: h for n, h in SELF_TEST_HISTS.items()
                if n != "crypto.hmac_us"}
        expect("baseline histogram missing from the run",
               _write_run(tmp, "r_lost", "fleet_scale:smoke",
                          SELF_TEST_COUNTERS, lost),
               baseline_path, want_pass=False, want_marker="P99 GATE LOST")

        RETIRED.append("crypto.hmac_us")
        expect("retired histogram missing from the run",
               _write_run(tmp, "r_retired", "fleet_scale:smoke",
                          SELF_TEST_COUNTERS, lost),
               baseline_path, want_pass=True)
        RETIRED.remove("crypto.hmac_us")

        idle = dict(SELF_TEST_HISTS)
        idle["crypto.hmac_us"] = {"count": 0, "p99": 0.0}
        expect("present histogram with no calls",
               _write_run(tmp, "r_idle", "fleet_scale:smoke",
                          SELF_TEST_COUNTERS, idle),
               baseline_path, want_pass=True)

        leaked = dict(SELF_TEST_GAUGES,
                      **{"fleet.guard.peak_entries": 90.0})
        expect("relay memory above guard capacity",
               _write_run(tmp, "r_mem", "fleet_scale:smoke",
                          SELF_TEST_COUNTERS, SELF_TEST_HISTS, leaked),
               baseline_path, want_pass=False, want_marker="RELAY MEMORY")

        collateral = dict(SELF_TEST_COUNTERS,
                          **{"fleet.guard.false_drop": 100})
        expect("guard false-drop ceiling",
               _write_run(tmp, "r_drop", "fleet_scale:smoke",
                          collateral, SELF_TEST_HISTS),
               baseline_path, want_pass=False, want_marker="GUARD CEILING")

        slow_crypto = dict(SELF_TEST_GAUGES,
                           **{"bench.crypto.sha256_avx2_speedup": 2.0})
        expect("crypto speedup regression",
               _write_run(tmp, "r_slow", "fleet_scale:smoke",
                          SELF_TEST_COUNTERS, SELF_TEST_HISTS, slow_crypto),
               baseline_path, want_pass=False, want_marker="THROUGHPUT")

        fast_crypto = dict(SELF_TEST_GAUGES,
                           **{"bench.crypto.sha256_avx2_speedup": 2.85,
                              "bench.crypto.sha256_avx2_per_sec": 1.0})
        expect("crypto speedup jitter within band, per_sec ungated",
               _write_run(tmp, "r_fastish", "fleet_scale:smoke",
                          SELF_TEST_COUNTERS, SELF_TEST_HISTS, fast_crypto),
               baseline_path, want_pass=True)

        # Gate 6 per host backend: the baseline host had SHA-NI.
        shani_gauges = dict(SELF_TEST_GAUGES,
                            **{"bench.crypto.chain_walk_shani_speedup": 7.4})
        shani_base = pathlib.Path(tmp) / "BENCH_shani.json"
        base_doc = json.loads(baseline_path.read_text())
        base_doc["benches"][0]["trajectory"]["gauges"] = shani_gauges
        shani_base.write_text(json.dumps(base_doc))
        expect("backend row the run host lacks is skipped",
               _write_run(tmp, "r_no_shani_host", "fleet_scale:smoke",
                          SELF_TEST_COUNTERS, SELF_TEST_HISTS,
                          SELF_TEST_GAUGES,
                          {"sha256_backends": ["scalar", "avx2"]}),
               shani_base, want_pass=True)
        expect("backend row the run host has but the run lacks",
               _write_run(tmp, "r_shani_lost", "fleet_scale:smoke",
                          SELF_TEST_COUNTERS, SELF_TEST_HISTS,
                          SELF_TEST_GAUGES,
                          {"sha256_backends": ["scalar", "avx2", "shani"]}),
               shani_base, want_pass=False, want_marker="speedup gauge gone")

        diverged = dict(SELF_TEST_GAUGES,
                        **{"strategy.ess_gap": 0.05,
                           "strategy.ess_gap.tree_eta0.25": 0.41})
        expect("adaptive attacker off the equilibrium",
               _write_run(tmp, "r_ess", "fleet_scale:smoke",
                          SELF_TEST_COUNTERS, SELF_TEST_HISTS, diverged),
               baseline_path, want_pass=False, want_marker="ESS GAP")

        strategy_forged = dict(SELF_TEST_COUNTERS,
                               **{"strategy.forged_accepted": 2})
        expect("forged auth under a strategy adversary",
               _write_run(tmp, "r_strat_forged", "fleet_scale:smoke",
                          strategy_forged, SELF_TEST_HISTS),
               baseline_path, want_pass=False, want_marker="FORGED AUTH")

        expect("unknown scenario",
               _write_run(tmp, "r_unknown", "fleet_scale:mystery",
                          SELF_TEST_COUNTERS, SELF_TEST_HISTS),
               baseline_path, want_pass=False, want_marker="NO BASELINE")

    if failures:
        for f in failures:
            print(f"SELF-TEST FAIL: {f}", file=sys.stderr)
        return 1
    print("self-test OK: all gates fire on doctored runs and pass clean ones")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", help="BENCH_*.json trajectory to gate "
                        "against (from scripts/bench_baseline.py)")
    parser.add_argument("--run", action="append", default=[],
                        help="run-registry directory bench_out/runs/<id> "
                             "(repeatable)")
    parser.add_argument("--auth-tol", type=float, default=0.01,
                        help="max absolute auth-rate drop (default 0.01)")
    parser.add_argument("--sim-p99-rel", type=float, default=0.05,
                        help="relative p99 band for sim-time histograms "
                             "(default 0.05)")
    parser.add_argument("--wall-p99-rel", type=float, default=4.0,
                        help="relative p99 band for wall-clock histograms "
                             "(default 4.0)")
    parser.add_argument("--guard-tol", type=float, default=0.25,
                        help="relative ceiling band for guard collateral "
                             "counters (default 0.25)")
    # 0.25: a real regression (losing midstates or a SIMD tier) halves
    # the ratio or worse; run-to-run and cross-microarch jitter stays
    # well inside a quarter once the bench's best-of windows are long
    # enough.
    parser.add_argument("--throughput-tol", type=float, default=0.25,
                        help="max relative drop in bench.crypto.*_speedup "
                             "gauges (default 0.25)")
    parser.add_argument("--ess-gap-max", type=float, default=0.2,
                        help="max adaptive-attacker ESS convergence gap for "
                             "*ess_gap* gauges (default 0.2)")
    parser.add_argument("--self-test", action="store_true",
                        help="exercise the gates on synthetic doctored runs")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.baseline or not args.run:
        parser.error("--baseline and at least one --run are required "
                     "(or use --self-test)")

    baseline = load_json(args.baseline)
    all_failures = []
    for run_dir in args.run:
        got = check_run(baseline, run_dir, args)
        label = pathlib.Path(run_dir).name
        if got:
            all_failures += got
            print(f"[{label}] FAIL ({len(got)} gate(s))")
        else:
            print(f"[{label}] ok")

    if all_failures:
        print("\nbench_trend: REGRESSION GATE FAILED:", file=sys.stderr)
        for f in all_failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("bench_trend: all runs within the trajectory band")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
