#!/usr/bin/env python3
"""Performance ledger: builds bench_ledger, runs workloads, checks, reports.

Every workload runs in its own bench_ledger process. Each run builds
bench_ledger incrementally first (cmake, Release, into build-ledger/).

  python3 bench/ledger/run.py
      Runs every workload --repeats times (default 3) at the pinned seed,
      checks each run, prints every metric as `workload metric value unit`
      (medians over the repeats), and writes BENCH_ledger.json.
  python3 bench/ledger/run.py --smoke
      Every workload once at 1/50 of the run length, all checks on.
  python3 bench/ledger/run.py --workload W --seed N --seconds S --trace 0|1
      One run. The last line of stdout is a JSON object with the keys
      correct, attempted, failed and metrics: the end-to-end metrics with
      --trace 0, the per-layer metrics with --trace 1.
  python3 bench/ledger/run.py --compare PARENT.json CHANGE.json
      Verdict per (end-to-end metric, workload) from two BENCH_ledger.json
      files collected in alternating order (see --append).
  python3 bench/ledger/run.py --stability RUNS [--out FILE]
      Two sets of RUNS runs per workload, seeds 1..RUNS; reports each
      metric's median, quartiles and spread per set and the gap between the
      set medians.

Exit status is non-zero when the build fails, a bench_ledger run fails, or any
check fails; the failing check is named with its workload.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
LEDGER = ROOT / "bench" / "ledger"
BUILD = ROOT / "build-ledger"
WORK = BUILD / "run"
PROGRAM = BUILD / "bench_ledger"
PINS = LEDGER / "pins.json"
RUN_TIMEOUT_S = 170
STABILITY_SETS = 2

# Units whose values are times or rates: a time-sliced run distorts them,
# and they are reported at the capture host's speed (see at_reference_speed).
TIME_UNITS = {"ns", "us", "ms", "s"}
RATE_UNITS = {"1/s"}
TIMED_UNITS = TIME_UNITS | RATE_UNITS

# Shape overload_mix must keep for its per-layer numbers to mean anything.
OVERLOAD_SHAPE = {
    "admission.shed_share": (0.05, 0.40),
    "overload.degraded_slot_share": (0.20, 1.0),
    "overload.retry_busy_share": (0.50, 1.0),
}


def load_json(path):
    with open(path) as f:
        return json.load(f)


def benchmark():
    return load_json(ROOT / "BENCHMARK.json")


def host_meta():
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    fs_type = "unknown"
    try:
        target = str(BUILD.resolve())
        best = ""
        for line in Path("/proc/mounts").read_text().splitlines():
            fields = line.split()
            mount = fields[1]
            inside = target == mount or target.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, fs_type = mount, fields[2]
    except OSError:
        pass
    return {
        "kernel": platform.release(),
        "cpu_model": model,
        "cpus": len(os.sched_getaffinity(0)),
        "checkpoint_fs": fs_type,
    }


def build():
    """Configures and builds bench_ledger; output goes to stderr."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [
        ["cmake", "-S", str(LEDGER), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "bench_ledger", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("ledger: build failed: " + " ".join(cmd))


def run_ledger(workload, seed, seconds):
    """One bench_ledger process; returns its JSON report."""
    cmd = [str(PROGRAM), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--work-dir", str(WORK)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"ledger: {workload}: bench_ledger timed out")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        sys.exit(f"ledger: {workload}: bench_ledger exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_run(report, pins):
    """Failed checks of one run, each naming its workload."""
    w = report["workload"]
    failed = [f"{w}: {name}" for name, ok in report["checks"].items() if not ok]
    if report["failed_slots"]:
        failed.append(f"{w}: {report['failed_slots']} slots broke conservation")
    pin = pins.get(w)
    if pin is None:
        failed.append(f"{w}: no pin in {PINS.name}")
    elif report["seed"] == pin["seed"]:
        for key in ("pin_slot", "digest", "loss_ratio_exact"):
            if report[key] != pin[key]:
                failed.append(f"{w}: {key} {report[key]} != pinned {pin[key]}")
    if w == "overload_mix":
        for name, (lo, hi) in OVERLOAD_SHAPE.items():
            value = report["metrics"][name]
            if not lo <= value <= hi:
                failed.append(f"{w}: {name} {value:.3f} outside [{lo}, {hi}]")
    return failed


def check_repeats(reports):
    """Same seed, same digests and loss; a second seed is checked in-process."""
    failed = []
    first = reports[0]
    for r in reports[1:]:
        for key in ("digest", "digest_early", "loss_ratio_exact"):
            if r[key] != first[key]:
                failed.append(f"{r['workload']}: {key} differs between repeats")
    return failed


def at_reference_speed(report, specs):
    """Metric values of `specs` as the capture host would have timed them.

    bench_ledger times a fixed register-only chain throughout the run and
    reports host.speed, the capture host's chain time over this run's.
    Times are multiplied by it and rates divided by it, which cancels the
    clock changes a shared host makes with its load.
    """
    speed = report["metrics"]["host.speed"]
    out = {}
    for spec in specs:
        value = report["metrics"][spec["name"]]
        if spec["unit"] in TIME_UNITS:
            value *= speed
        elif spec["unit"] in RATE_UNITS:
            value /= speed
        out[spec["name"]] = value
    return out


def honest_metrics(report, specs, cpus):
    """Metric entries for `specs`; timed ones are null past the CPU count."""
    starved = report["threads"] > cpus
    values = at_reference_speed(report, specs)
    out = {}
    for spec in specs:
        value = values[spec["name"]]
        entry = {"value": value, "unit": spec["unit"]}
        if starved and (spec["unit"] in TIMED_UNITS or spec["name"] == "trace.overhead"):
            entry = {"value": None, "unit": spec["unit"],
                     "reason": f"needs {report['threads']} threads, host has {cpus} CPUs"}
        out[spec["name"]] = entry
    return out


def fmt(value):
    return "null" if value is None else f"{value:.6g}"


def single_run(args):
    bench = benchmark()
    build()
    host = host_meta()
    report = run_ledger(args.workload, args.seed, args.seconds)
    failed = check_run(report, load_json(PINS))
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = honest_metrics(report, specs, host["cpus"])
    print("host " + " ".join(f"{k}={json.dumps(v)}" for k, v in host.items()) +
          f" speed={report['metrics']['host.speed']:.4f}")
    for name, entry in metrics.items():
        print(f"{args.workload} {name} {fmt(entry['value'])} {entry['unit']}")
    for failure in failed:
        print("check failed: " + failure, file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": report["slots"],
                      "failed": report["failed_slots"] + len(failed),
                      "metrics": metrics}))
    return 1 if failed else 0


def all_specs(bench):
    return bench["end_to_end"] + bench["per_layer"]


def ledger_run(args):
    """Every workload, `repeats` times at its pinned seed."""
    bench = benchmark()
    build()
    host = host_meta()
    pins = load_json(PINS)
    seconds = bench["run_seconds"] / 50 if args.smoke else args.seconds
    repeats = 1 if args.smoke else args.repeats
    names = [w["name"] for w in bench["workloads"]]
    failed = []
    out = {"host": host, "seconds": seconds, "workloads": {}}
    if args.append and Path(args.append).exists():
        out = load_json(args.append)
    for name in names:
        reports = [run_ledger(name, pins[name]["seed"], seconds) for _ in range(repeats)]
        for report in reports:
            failed += check_run(report, pins)
        failed += check_repeats(reports)
        entry = out["workloads"].setdefault(name, {"runs": []})
        entry["runs"] += [honest_metrics(r, all_specs(bench), host["cpus"]) for r in reports]
        entry["digest"] = reports[0]["digest"]
        entry["stages"] = reports[-1]["stages"]
        for spec in all_specs(bench):
            values = [run[spec["name"]]["value"] for run in entry["runs"]]
            value = None if None in values else statistics.median(values)
            print(f"{name} {spec['name']} {fmt(value)} {spec['unit']}")
        speeds = [r["metrics"]["host.speed"] for r in reports]
        print(f"{name} host.speed {fmt(statistics.median(speeds))} ratio")
        for stage, v in reports[-1]["stages"].items():
            print(f"{name} stage.{stage} total {v['total_us']:.4g} us self {v['self_us']:.4g} us")
    print("host " + " ".join(f"{k}={json.dumps(v)}" for k, v in host.items()))
    if not args.smoke:
        path = Path(args.append or args.out or ROOT / "BENCH_ledger.json")
        path.write_text(json.dumps(out, indent=1) + "\n")
        print(f"wrote {path}")
    for failure in failed:
        print("check failed: " + failure, file=sys.stderr)
    print("ledger: " + ("FAILED" if failed else "all checks passed"))
    return 1 if failed else 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    """Distance between the quartiles as a share of the median."""
    lo, hi = quartiles(values)
    med = statistics.median(values)
    return (hi - lo) / abs(med) if med else 0.0


def verdict(parent, change, spec):
    """Choosing-metrics rule on paired, alternating runs."""
    if None in parent or None in change:
        return "unresolved", "null values (CPU-starved host)"
    pairs = list(zip(parent, change))
    if len(pairs) < 10:
        return "unresolved", f"{len(pairs)} pairs, need 10"
    lower = spec["better"] == "lower"
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    med_p, med_c = statistics.median(parent), statistics.median(change)
    worse_share = ((med_c - med_p) if lower else (med_p - med_c)) / abs(med_p) if med_p else 0.0
    if spread(parent) > spec["bound"] or spread(change) > spec["bound"]:
        if all(better(c, p) for c in change for p in parent):
            return "improved", "every change run beats every parent run"
        return "unresolved", "run-to-run spread exceeds the bound"
    wins = sum(better(c, p) for p, c in pairs)
    lo, hi = quartiles(parent)
    detail = f"median {med_p:.6g} -> {med_c:.6g}, wins {wins}/{len(pairs)}"
    if worse_share > spec["bound"]:
        return "regressed", detail
    if wins >= 0.9 * len(pairs) and abs(med_c - med_p) > hi - lo and better(med_c, med_p):
        return "improved", detail
    return "unchanged", detail


def compare(args):
    bench = benchmark()
    parent, change = load_json(args.compare[0]), load_json(args.compare[1])
    regressed = False
    for w in bench["workloads"]:
        name = w["name"]
        p_runs = parent["workloads"].get(name, {}).get("runs", [])
        c_runs = change["workloads"].get(name, {}).get("runs", [])
        for spec in bench["end_to_end"]:
            p = [r[spec["name"]]["value"] for r in p_runs]
            c = [r[spec["name"]]["value"] for r in c_runs]
            result, detail = verdict(p, c, spec)
            regressed = regressed or result == "regressed"
            print(f"{spec['name']}@{name} {result} ({detail})")
    return 1 if regressed else 0


def stability(args):
    """Two sets of RUNS runs per workload; spreads and set gaps.

    A metric is flagged SPREAD when a set's spread exceeds a third of its
    bound: a spread estimated from ten runs varies itself, and a bound
    needs that margin to hold on the next ten. It is flagged GAP when the
    set medians differ by more than the bound. setup_s is gated on its gap
    only, so its spread is not flagged.
    """
    bench = benchmark()
    build()
    host = host_meta()
    pins = load_json(PINS)
    names = [w["name"] for w in bench["workloads"]]
    specs = all_specs(bench) + [{"name": "host.speed", "unit": "ratio"}]
    sets = [{name: [] for name in names} for _ in range(STABILITY_SETS)]
    failed = []
    for one_set in sets:
        for name in names:
            for seed in range(1, args.stability + 1):
                report = run_ledger(name, seed, args.seconds)
                failed += check_run(report, pins)
                one_set[name].append(at_reference_speed(report, specs))
    out = {"host": host, "seconds": args.seconds, "runs_per_set": args.stability,
           "sets": STABILITY_SETS, "seeds": f"1..{args.stability}", "workloads": {}}
    for name in names:
        rows = out["workloads"][name] = {}
        for spec in specs:
            per_set = [[m[spec["name"]] for m in one_set[name]] for one_set in sets]
            medians = [statistics.median(v) for v in per_set]
            row = {"unit": spec["unit"],
                   "median": statistics.median([x for v in per_set for x in v]),
                   "sets": [{"median": m, "q1": quartiles(v)[0], "q3": quartiles(v)[1],
                             "spread": spread(v), "values": v}
                            for m, v in zip(medians, per_set)]}
            if "bound" in spec:
                base = medians[0]
                row["bound"] = spec["bound"]
                row["set_gap"] = max(abs(m - base) / abs(base) if base else 0.0 for m in medians)
                spreads = [one["spread"] for one in row["sets"]]
                flag = ""
                if spec["name"] != "setup_s" and max(spreads) > spec["bound"] / 3:
                    flag += " SPREAD"
                if row["set_gap"] > spec["bound"]:
                    flag += " GAP"
                print(f"{spec['name']}@{name} median {row['median']:.6g} {spec['unit']} "
                      f"spread {' '.join('%.3f' % x for x in spreads)} "
                      f"gap {row['set_gap']:.3f} bound {spec['bound']}{flag}")
            rows[spec["name"]] = row
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    for failure in failed:
        print("check failed: " + failure, file=sys.stderr)
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="run this one workload once")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out", help="ledger file to write (default BENCH_ledger.json); "
                    "with --stability, the baseline file")
    ap.add_argument("--append", help="add this run's repeats to an existing ledger file")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--stability", type=int, metavar="RUNS")
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = benchmark()["run_seconds"]
    if args.compare:
        return compare(args)
    if args.stability:
        return stability(args)
    if args.workload:
        if args.seed is None:
            args.seed = load_json(PINS)[args.workload]["seed"]
        return single_run(args)
    return ledger_run(args)


if __name__ == "__main__":
    sys.exit(main())
