"""epspectra benchmark: three workloads of CLI jobs, timed end to end.

    python3 bench/run.py --workload dense-sweep --seed 0 --seconds 15 --trace 0

Run from the repository root. Each workload runs in fresh child
interpreters (see ``worker.py``) against the package in ``src/``, with the
BLAS thread count pinned to 1. With ``--trace 0`` the last line of stdout
is a JSON object holding the end-to-end metrics ``wall_s`` (one warm pass,
each job at its median over the run's passes), ``setup_s`` (median of fresh
set-ups spread over the run), both in seconds at the reference speed of
``calibrate``, and ``peak_rss_mib``; with ``--trace 1`` it holds the
per-layer metrics of one traced pass. The lines before it report the
unscaled seconds (median and quartiles of the pass times), the accuracy
figures (``krein_residual_max``, ``eig_err_max``, ``ep_unconfirmed``),
``fail_frac`` and the environment. Every job's output is checked; the exit
code is 1 if any check failed. Results and spans are written to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import jobs as workloads  # noqa: E402

# Set-up probes per run, spread over it (a share before each measuring
# child, the rest after the last) and over the CPUs in turn: the machine's
# speed drifts over tens of seconds, so probes taken in one burst would all
# see the same spell.
SETUP_REPEATS = 9
# The measured passes are split over up to this many fresh interpreters,
# run one after another, so that no single process's luck (memory layout,
# a slow spell of the machine) sets the median. A pass of ``exact-verify``
# takes most of ``--seconds``; it still gets two, each in its own
# interpreter, so that workload measures two passes (26 to 40 s), not
# ``--seconds``.
MEASURE_CHILDREN = 3
MIN_PASSES = 2
DEADLINE_S = 170.0


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(mode, args, timeout, seconds=0.0, check=1, offset=0):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace), "--check", str(check), "--pass-offset", str(offset),
           "--out-dir", OUT_DIR]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name == "ep_locator.fallback_ratio":
        return "%"
    if name == "cli.output_bytes":
        return "bytes"
    return "count"


def measure(args, remaining):
    """Set-up probes and measuring children; returns (set-up times, children)."""
    setups = []
    share = args.seconds / MEASURE_CHILDREN

    def probe_until(count):
        while len(setups) < count:
            probe = run_child("setup", args, min(60.0, remaining()), offset=len(setups))
            if probe["code"] != 0:
                raise RuntimeError(f"set-up job failed: {probe['error']}")
            setups.append(probe)

    if args.trace:
        return setups, [run_child("measure", args, remaining(), share)]
    children = []
    while (sum(sum(map(sum, child["passes"])) for child in children) < args.seconds
           or sum(len(child["passes"]) for child in children) < MIN_PASSES):
        slots = MEASURE_CHILDREN + 1
        probe_until(min(SETUP_REPEATS, (len(children) + 1) * SETUP_REPEATS // slots))
        # only the first child checks outputs; the others must match it
        children.append(run_child("measure", args, remaining(), share, check=int(not children),
                                  offset=sum(len(child["passes"]) for child in children)))
    probe_until(SETUP_REPEATS)
    return setups, children


def combine(children):
    """One report from the children's: passes pooled, outputs compared."""
    report = dict(children[0])
    for key in ("passes", "kernels"):
        report[key] = [row for child in children for row in child[key]]
    report["failures"] = report["failures"] + [
        f"{' '.join(argv)}: output in child {n} differs from child 1"
        for n, child in enumerate(children[1:], 2)
        for argv, a, b in zip(report["jobs"], report["digests"], child["digests"]) if a != b
    ] + [f for child in children[1:] for f in child["failures"]]
    report["attempted"] = sum(child["attempted"] for child in children)
    report["peak_rss_mib"] = max(child["peak_rss_mib"] for child in children)
    return report


def scaled_setup(probes):
    """Median set-up seconds at the reference speed of the builtins-only kernel."""
    return statistics.median(p["setup_s"] * calibrate.BUILTIN_REFERENCE_S / p["kernel_s"]
                             for p in probes)


def report_lines(args, report, setups):
    walls, quality = [sum(times) for times in report["passes"]], report["quality"]
    q1, q3 = quartiles(walls)
    failed, attempted = len(report["failures"]), report["attempted"]
    lines = [
        f"workload {args.workload}, seed {args.seed}, {len(report['jobs'])} jobs:",
        *(f"  epspectra {' '.join(job)}" for job in report["jobs"]),
        f"environment {json.dumps(report['environment'], sort_keys=True)}",
        f"wall_s {calibrate.scaled_wall(report['passes'], report['kernels']):.6f} s at reference speed "
        f"(each job at its median of {len(walls)} passes; unscaled pass times: "
        f"median {statistics.median(walls):.6f}, q1 {q1:.6f}, q3 {q3:.6f}, n={len(walls)})",
    ]
    if setups:
        raw = [p["setup_s"] for p in setups]
        lines.append(f"setup_s {scaled_setup(setups):.6f} s at reference speed (unscaled: "
                     f"median {statistics.median(raw):.6f}, min {min(raw):.6f}, "
                     f"max {max(raw):.6f}, n={len(raw)})")
    lines.append(f"peak_rss_mib {report['peak_rss_mib']:.3f} MiB")
    for name, unit in (("krein_residual_max", "1"), ("eig_err_max", "v"),
                       ("ep_unconfirmed", "count")):
        if name in quality:
            lines.append(f"{name} {quality[name]:.6g} {unit}")
    lines.append(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    lines.append(f"quality {json.dumps(quality, sort_keys=True)}")
    lines.extend(f"FAILED {text}" for text in report["failures"])
    if args.trace:
        if report["missing_hooks"]:
            lines.append(f"untraced (not found): {', '.join(report['missing_hooks'])}")
        lines.append(f"traced pass {report['traced_wall']:.6f} s, {report['spans']} spans")
        lines.extend(f"  {name} {value:.6g} {per_layer_unit(name)}"
                     for name, value in report["per_layer"].items())
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not os.path.exists(os.path.join(SRC, "epspectra", "cli.py")):
        sys.stderr.write(f"bench: no package source at {SRC}; run from a full checkout\n")
        return 2
    try:
        setups, children = measure(args, lambda: DEADLINE_S - (time.monotonic() - started))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.stderr.write(f"bench: {args.workload} seed {args.seed}: {exc}\n")
        return 1
    report = combine(children)
    failed = len(report["failures"])
    if args.trace:
        metrics = {name: metric(value, per_layer_unit(name))
                   for name, value in report["per_layer"].items()}
    else:
        metrics = {
            "wall_s": metric(calibrate.scaled_wall(report["passes"], report["kernels"]), "s"),
            "setup_s": metric(scaled_setup(setups), "s"),
            "peak_rss_mib": metric(report["peak_rss_mib"], "MiB"),
        }
    result = {"correct": failed == 0, "attempted": report["attempted"], "failed": failed,
              "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(dict(result, workload=args.workload, seed=args.seed, setups=setups,
                       **{k: report[k] for k in ("passes", "kernels", "quality", "failures",
                                                 "environment", "jobs")}), fh, indent=1)
    print("\n".join(report_lines(args, report, setups)))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
