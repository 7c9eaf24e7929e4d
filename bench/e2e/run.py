#!/usr/bin/env python3
"""End-to-end DAP benchmark: build the driver, run workloads, check outputs.

Run from the repository root:

  python3 bench/e2e/run.py                      # all five workloads
  python3 bench/e2e/run.py --workload rx_flood --seed 7 --seconds 10 --trace 0
  python3 bench/e2e/run.py --workload rx_verify --trace 1   # per-layer numbers
  python3 bench/e2e/run.py --reps 10            # median and IQR per metric
  python3 bench/e2e/run.py --smoke              # every workload, ~1 s each
  python3 bench/e2e/run.py --check-determinism  # 1 vs 4 threads, same digest
  python3 bench/e2e/run.py --self-test          # helpers, no build

The first run configures and builds build-e2e/ (the repository's own
CMake configure with bench/e2e/e2e.cmake injected). A --workload run
prints one JSON object as the last line of stdout:

  {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

with every end-to-end metric (--trace 0) or every per-layer metric
(--trace 1), and exits non-zero when any output check fails.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-e2e")
DRIVER = os.path.join(BUILD, "dap_e2e")

# Workload names, metric names and units live in BENCHMARK.json; every run
# checks the metrics it computes against them.
with open(os.path.join(ROOT, "BENCHMARK.json")) as manifest_file:
    MANIFEST = json.load(manifest_file)
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]
END_TO_END_UNITS = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}

# Layers the driver wraps in spans, by the public call it makes.
PROGRAM_LAYERS = ["wire.deframe", "dap.receive", "dap.enqueue", "dap.drain",
                  "fleet.run", "fleet.drain", "analysis.sweep"]

# Host speed probe rate (probes/s, see probe_rate in dap_e2e.cc) that
# defines one reference second: about this host's rate when neighbouring
# tenants are quiet. Every reported time is wall time scaled by
# probe / REFERENCE_PROBES_PER_S for its segment.
REFERENCE_PROBES_PER_S = 350.0

# Two-sided tolerance, in standard errors, of the statistical output
# checks. A correct program exceeds it with probability ~7e-6 per check,
# so hundreds of benchmark runs stay free of false alarms.
Z = 4.5
AUTHENTIC_COPIES_MC = 32  # analysis::MonteCarloConfig default
MC_PS = [0.5, 0.7, 0.8, 0.9, 0.95]
MC_MS = [1, 2, 4, 8, 16]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ------------------------------------------------------------ statistics

def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, q3) as statistics.quantiles(values, n=4) gives them."""
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def iqr_share(values):
    """Distance between the first and third quartile, over the median."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0


def percentile(sorted_values, q):
    """Linear interpolation between closest ranks; q in [0, 100]."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


# ------------------------------------------- expectations and checks

def reservoir_keeps_authentic(authentic, total, m):
    """P(at least one of `authentic` copies among a uniform m-subset of
    `total` offers): the reservoir's exact auth rate."""
    return 1.0 - math.comb(total - authentic, m) / math.comb(total, m)


def forged_copies(authentic, p):
    """sim::FloodingForger::copies_for_fraction (llround)."""
    return int(math.floor(authentic * p / (1.0 - p) + 0.5))


def mc_attack_success(p, m):
    """Exact P(all m slots forged) for one simulate_dap_round cell."""
    forged = forged_copies(AUTHENTIC_COPIES_MC, p)
    return math.comb(forged, m) / math.comb(forged + AUTHENTIC_COPIES_MC, m)


def binomial_ok(successes, trials, p):
    """|successes/trials - p| within Z standard errors (with a 1/n floor so
    near-0 or near-1 rates still allow a few events)."""
    tol = Z * math.sqrt((p * (1.0 - p) + 1.0 / trials) / trials)
    return abs(successes / trials - p) <= tol, successes / trials, tol


RX_FLOOD_AUTH = reservoir_keeps_authentic(4, 80, 4)   # 0.1888
FLEET_AUTH = reservoir_keeps_authentic(1, 10, 4)      # 0.4 at p = 0.9


def check(workload, outcome):
    """Returns (failed_ops, [(name, ok, detail)])."""
    o = outcome
    results = []
    failed_ops = o.get("deframe_failures", 0) + o.get("forged_accepted", 0)
    results.append(("no forged message authenticates",
                    o.get("forged_accepted", 0) == 0,
                    f"forged_accepted={o.get('forged_accepted', 0)}"))
    if workload.startswith("rx_"):
        results.append(("every frame deframes", o.get("deframe_failures", 0) == 0,
                        f"deframe_failures={o.get('deframe_failures', 0)}"))
    if workload == "rx_flood":
        ok, rate, tol = binomial_ok(o["genuine_authenticated"],
                                    o["genuine_delivered"], RX_FLOOD_AUTH)
        results.append(("auth rate matches 1 - C(76,4)/C(80,4)", ok,
                        f"{rate:.4f} vs {RX_FLOOD_AUTH:.4f} +- {tol:.4f}"))
    elif workload == "rx_verify":
        lost = o["genuine_delivered"] - o["genuine_authenticated"]
        failed_ops += lost
        results.append(("every received genuine reveal authenticates", lost == 0,
                        f"{o['genuine_authenticated']}/{o['genuine_delivered']}"))
    elif workload.startswith("fleet_"):
        limit = 0.01 if workload == "fleet_tree" else 0.02
        rate = o["auths"] / o["member_intervals"]
        results.append(("fleet auth rate near 1 - C(9,4)/C(10,4)",
                        abs(rate - FLEET_AUTH) <= limit,
                        f"{rate:.4f} vs {FLEET_AUTH:.4f} +- {limit}"))
    elif workload == "mc_sweep":
        worst_exact = worst_model = 0.0
        exact_ok = model_ok = True
        for cell, (p, m) in enumerate((p, m) for p in MC_PS for m in MC_MS):
            trials = o[f"cell.{cell}.trials"]
            defeated = o[f"cell.{cell}.defeated"]
            exact = mc_attack_success(p, m)
            ok, rate, tol = binomial_ok(defeated, trials, exact)
            exact_ok &= ok
            worst_exact = max(worst_exact, abs(rate - exact))
            gap = abs(rate - p ** m)
            model_ok &= gap <= 0.05 + tol
            worst_model = max(worst_model, gap)
        results.append(("attack success matches the exact reservoir odds",
                        exact_ok, f"worst |measured - exact| = {worst_exact:.4f}"))
        results.append(("attack success within 0.05 of p^m", model_ok,
                        f"worst |measured - p^m| = {worst_model:.4f}"))
    failed_ops += sum(1 for _, ok, _ in results if not ok)
    return failed_ops, results


# ---------------------------------------------------------------- metrics

def end_to_end_metrics(raw):
    segs = raw["segments"]
    untraced = [s for s in segs if not s["traced"]]
    steps = sorted(x for s in untraced for x in s["steps"])
    return {
        "work_per_s": median([s["work"] / s["wall"] for s in untraced]),
        "step_p50_us": percentile(steps, 50),
        "step_p99_us": percentile(steps, 99),
        "setup_s": median([s["setup"] for s in segs]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(raw):
    t = raw["trace"]
    segs = raw["segments"]
    traced = [s for s in segs if s["traced"]]
    untraced = [s for s in segs if not s["traced"]]
    # Shares divide wall-clock times of the same segments: no scaling.
    wall = sum(s["raw_wall"] for s in traced)
    items = sum(s["work"] for s in traced)
    layers, c, busy = t["layers"], t["counters"], t["busy_s"]
    m = {}
    for name in ["wire.deframe", "dap.receive", "dap.enqueue", "dap.drain",
                 "fleet.drain", "analysis.sweep"]:
        m[name + ".calls"] = layers[name][0]
    for name in PROGRAM_LAYERS:
        m[name + ".self_share"] = layers[name][1] / wall
    coverage = sum(layers[n][1] for n in PROGRAM_LAYERS) / wall
    m["bench.coverage"] = coverage
    m["bench.dispatch.share"] = 1.0 - coverage
    m["dap.drain.reveals_per_call"] = ratio(c["dap.batched_reveals"],
                                            c["dap.reveal_batches"])
    m["fleet.drain.members_per_call"] = ratio(c.get("fleet.drain.members", 0),
                                              layers["fleet.drain"][0])
    m["dap.records_kept_ratio"] = ratio(c["dap.records_stored"],
                                        c["dap.records_offered"])
    m["dap.weak_reject_ratio"] = ratio(c["dap.weak_auth_failures"],
                                       c["dap.reveals_received"])
    m["dap.announce.busy_share"] = busy["dap.rx_announce_us"] / wall
    m["dap.reveal.busy_share"] = busy["dap.rx_reveal_us"] / wall
    m["crypto.hmac.calls_per_item"] = ratio(c["crypto.hmac_calls"], items)
    m["crypto.hmac.busy_share"] = busy["crypto.hmac_us"] / wall
    m["crypto.prf.calls_per_item"] = ratio(c["crypto.prf_calls"], items)
    m["crypto.prf.busy_share"] = busy["crypto.prf_us"] / wall
    m["crypto.chain_walk.steps_per_reveal"] = ratio(c["crypto.chain_walk_steps"],
                                                    c["dap.reveals_received"])
    m["crypto.chain_walk.busy_share"] = busy["crypto.chain_walk_us"] / wall
    m["crypto.keychain_build.calls_per_item"] = ratio(c["crypto.keychain_builds"],
                                                      items)
    m["crypto.keychain_build.busy_share"] = busy["crypto.keychain_build_us"] / wall
    blocks, idle = c["crypto.batch.blocks"], c["crypto.batch.idle_lane_blocks"]
    m["crypto.batch.lane_occupancy_pct"] = 100.0 * ratio(blocks, blocks + idle)
    packets = c.get("fleet.packets_in", 0)
    m["fleet.packets_in"] = packets
    m["fleet.guard.dedup_ratio"] = ratio(c.get("fleet.dedup_dropped", 0), packets)
    m["fleet.guard.evict_ratio"] = ratio(c.get("fleet.guard.evicted", 0), packets)
    m["fleet.stored_records_peak"] = c.get("fleet.stored_records_peak", 0)
    m["parallel.cpu_util"] = raw["cpu_s"] / (raw["timed_s"] * raw["threads"])
    m["obs.timing_tax"] = t["timing_tax"]
    m["obs.recorder_tax"] = t["recorder_tax"]
    m["bench.host_speed"] = median([s["speed"] for s in segs])

    def per_item(group):
        return median([s["wall"] / s["work"] for s in group])
    m["obs.trace_overhead"] = per_item(traced) / per_item(untraced)
    return m


# ------------------------------------------------------------------ build

def build_step(cmd, env):
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:], proc.stderr[-4000:])
        log("bench/e2e: build step failed:", " ".join(cmd))
    return proc.returncode == 0


def build():
    """Configures build-e2e/ once, then builds dap_e2e; exits on failure."""
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", ROOT, "-B", BUILD, *generator,
                     "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "e2e.cmake"),
                     "-DDAP_BUILD_TESTS=OFF", "-DDAP_BUILD_BENCHES=OFF",
                     "-DDAP_BUILD_EXAMPLES=OFF", "-DDAP_BUILD_FUZZERS=OFF"]
        if not build_step(configure, env):
            shutil.rmtree(BUILD, ignore_errors=True)  # no half-configured tree
            sys.exit(1)
    jobs = str(min(4, os.cpu_count() or 1))
    if not build_step(["cmake", "--build", BUILD, "--target", "dap_e2e",
                       "-j", jobs], env):
        sys.exit(1)


# -------------------------------------------------------------------- run

def run_driver(workload, seed, seconds, trace, threads=None, units=None,
               out_dir=None):
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    if threads:
        cmd += ["--threads", str(threads)]
    if units:
        cmd += ["--units", str(units)]
    if out_dir:
        cmd += ["--out", out_dir]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(proc.stderr)
        raise RuntimeError(f"driver failed on {workload} (exit {proc.returncode})")
    raw = json.loads(lines[-1])
    raw["segments"] = [scale_segment(json.loads(line)) for line in lines[:-1]]
    return raw


def scale_segment(line):
    """One driver segment line, with setup, wall and step times in reference
    seconds: each multiplied by the segment's probe / REFERENCE_PROBES_PER_S."""
    setup, wall, work, traced, probe = line["segment"]
    speed = probe / REFERENCE_PROBES_PER_S
    return {"setup": setup * speed, "wall": wall * speed, "work": work,
            "traced": bool(traced), "speed": speed, "raw_wall": wall,
            "steps": [x * speed for x in line["steps_us"]]}


def run_workload(workload, seed, seconds, trace):
    """One benchmark run: returns (result line dict, raw driver output)."""
    out_dir = None
    if trace:
        run_id = "{}-s{}-{}-{}".format(workload, seed,
                                       time.strftime("%Y%m%dT%H%M%SZ", time.gmtime()),
                                       os.getpid())
        out_dir = os.path.join("bench_out", "e2e", run_id)
    raw = run_driver(workload, seed, seconds, trace, out_dir=out_dir)
    failed, results = check(workload, raw["outcome"])
    for name, ok, detail in results:
        log(f"  [{'ok' if ok else 'FAIL'}] {workload}: {name} ({detail})")
    if trace:
        metrics = per_layer_metrics(raw)
        units = PER_LAYER_UNITS
        coverage = metrics["bench.coverage"]
        if workload.startswith("rx_") and coverage < 0.9:
            log(f"  [warn] {workload}: bench.coverage {coverage:.3f} < 0.9")
        with open(os.path.join(ROOT, out_dir, "trace.json")) as f:
            events = json.load(f)["traceEvents"]
        with open(os.path.join(ROOT, out_dir, "layers.json"), "w") as f:
            json.dump({"workload": workload, "seed": seed, "metrics": metrics,
                       "ledger": raw["trace"]["layers"],
                       "counters": raw["trace"]["counters"],
                       "busy_s": raw["trace"]["busy_s"],
                       "spans_kept": raw["trace"]["spans_kept"],
                       "spans_dropped": raw["trace"]["spans_dropped"]}, f, indent=1)
        log(f"  [trace] {out_dir}/trace.json ({len(events)} spans), layers.json")
    else:
        metrics = end_to_end_metrics(raw)
        units = END_TO_END_UNITS
        segs = raw["segments"]
        wall_clock = median([s["work"] / s["raw_wall"] for s in segs])
        log(f"  [samples] {workload}: {len(segs)} segments, "
            f"{sum(len(s['steps']) for s in segs)} steps, "
            f"{raw['threads']} thread(s); "
            f"host speed {median([s['speed'] for s in segs]):.3f}, "
            f"wall-clock work_per_s {wall_clock:.6g}")
    if set(metrics) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    attempted = sum(s["work"] for s in raw["segments"])
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in sorted(metrics)}}
    return line, raw


def print_metrics(workload, line):
    for name, m in line["metrics"].items():
        print(f"{workload:13s} {name:38s} {m['value']:>16.6g} {m['unit']}")


# ---------------------------------------------------------------- modes

def reps_mode(workloads, seed, seconds, reps):
    bounds = {m["name"]: m["bound"] for m in MANIFEST["end_to_end"]}
    flagged = failed = 0
    print(f"{'workload':13s} {'metric':12s} {'q1':>12s} {'median':>12s} "
          f"{'q3':>12s} {'IQR/median':>10s} {'bound':>6s}")
    for w in workloads:
        values = {}
        for r in range(reps):
            line, _ = run_workload(w, seed + r, seconds, False)
            failed += not line["correct"]
            for name, m in line["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            q1, q3 = quartiles(vals)
            share = iqr_share(vals)
            # setup_s is exempt from the spread rule (its median is gated).
            flag = share > bounds[name] and name != "setup_s"
            flagged += flag
            print(f"{w:13s} {name:12s} {q1:12.6g} {median(vals):12.6g} {q3:12.6g} "
                  f"{share:10.4f} {bounds[name]:6.2f}"
                  f"{'  WIDER THAN BOUND' if flag else ''}")
    return 1 if flagged or failed else 0


def determinism_mode(seed):
    ok = True
    for w in ["fleet_tree", "fleet_gossip", "mc_sweep"]:
        digests = [run_driver(w, seed, 1, False, threads=t, units=2)["digest"]
                   for t in (1, 4)]
        same = digests[0] == digests[1]
        ok &= same
        log(f"  [{'ok' if same else 'FAIL'}] {w}: digest 1 thread {digests[0]}, "
            f"4 threads {digests[1]}")
    return 0 if ok else 1


def self_test():
    assert median([3, 1, 2]) == 2
    assert quartiles([1, 2, 3, 4, 5, 6, 7, 8]) == (2.25, 6.75)
    assert abs(iqr_share([1, 2, 3, 4, 5, 6, 7, 8]) - 4.5 / 4.5) < 1e-12
    assert percentile([10.0], 99) == 10.0
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert abs(percentile([0.0, 10.0], 99) - 9.9) < 1e-12
    assert abs(RX_FLOOD_AUTH - 0.18880) < 1e-4
    assert abs(FLEET_AUTH - 0.4) < 1e-12
    assert forged_copies(32, 0.7) == 75 and forged_copies(32, 0.95) == 608
    assert mc_attack_success(0.5, 1) == 0.5
    assert all(abs(mc_attack_success(p, m) - p ** m) < 0.01
               for p in MC_PS for m in MC_MS)
    assert binomial_ok(1888, 10000, RX_FLOOD_AUTH)[0]
    assert not binomial_ok(2100, 10000, RX_FLOOD_AUTH)[0]
    assert binomial_ok(1, 2000, mc_attack_success(0.5, 16))[0]
    assert check("rx_verify", {"genuine_delivered": 5, "genuine_authenticated": 5,
                               "forged_accepted": 0})[0] == 0
    assert check("rx_verify", {"genuine_delivered": 5, "genuine_authenticated": 4,
                               "forged_accepted": 1})[0] == 4  # 1 + 1 op, 2 checks
    assert check("fleet_tree", {"auths": 4000, "member_intervals": 10000})[0] == 0
    assert check("fleet_tree", {"auths": 4200, "member_intervals": 10000})[0] == 1
    assert WORKLOADS == ["rx_flood", "rx_verify", "fleet_tree",
                         "fleet_gossip", "mc_sweep"]
    print("self-test ok")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--reps", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--check-determinism", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    build()
    if args.check_determinism:
        return determinism_mode(args.seed)
    seconds = args.seconds or (1 if args.smoke else MANIFEST["run_seconds"])
    workloads = [args.workload] if args.workload else WORKLOADS
    if args.reps:
        return reps_mode(workloads, args.seed, seconds, args.reps)

    lines = []
    for w in workloads:
        line, _ = run_workload(w, args.seed, seconds, args.trace == 1)
        print_metrics(w, line)
        lines.append(line)
    if args.workload:
        print(json.dumps(lines[0]))
    return 0 if all(line["correct"] for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
