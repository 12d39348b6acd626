"""One benchmark child interpreter; ``run.py`` starts it and reads its last line.

``setup``: the clock starts before ``import epspectra.cli`` and stops at the
end of a minimal instance of the workload's first command. The builtins-only
reference kernel of ``calibrate`` is timed three times before and three
times after.

``measure``: warms the interpreter with the minimal instances, then runs
whole passes over the workload's jobs in-process through
``epspectra.cli.main(argv)`` until ``--seconds`` have gone by, timing
each job of each pass and the reference kernel before the first job and
after every job. Peak memory is read before the outputs are checked.
It reports the output digests of its first pass, so that the parent can
compare children.
With ``--trace 1`` it then runs one more pass with every hook of
``tracing`` installed and reports per-layer counts and self times.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

import calibrate
import jobs as workloads


def run_job(cli, argv):
    """(exit code or None if it raised, stdout text, error text) of one job."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception as exc:  # a crashed job is a failed job
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def pin(index, cpus):
    """Run on the ``index``-th of ``cpus``, cyclically.

    On a shared virtual machine each CPU can slow down and speed up on its
    own, for tens of seconds at a time. Cycling successive passes (and
    set-up probes) over the usable CPUs keeps one CPU's slow spell from
    setting a run's median.
    """
    os.sched_setaffinity(0, {cpus[index % len(cpus)]})


def run_pass(cli, job_list, tracer=None, kernel=None):
    """(seconds of each job, results of each job, kernel seconds) of one pass.

    With a ``kernel`` the reference kernel is timed before the first job
    and after every job, so job ``i`` lies between kernel runs ``i`` and
    ``i + 1``.
    """
    times, results = [], []
    kernels = [kernel()] if kernel else []
    for i, argv in enumerate(job_list):
        if tracer is not None:
            tracer.job = i
        start = time.perf_counter()
        results.append(run_job(cli, argv))
        times.append(time.perf_counter() - start)
        if kernel:
            kernels.append(kernel())
    return times, results, kernels


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def setup(args):
    pin(args.pass_offset, sorted(os.sched_getaffinity(0)))
    kernels = [calibrate.builtin_kernel() for _ in range(3)]
    start = time.perf_counter()
    from epspectra import cli

    code, _, err = run_job(cli, workloads.MINIMAL[args.workload][0])
    elapsed = time.perf_counter() - start
    kernels += [calibrate.builtin_kernel() for _ in range(3)]
    return {"setup_s": elapsed, "kernel_s": statistics.median(kernels), "code": code,
            "error": err if code != 0 else ""}


def environment(cpus):
    import numpy
    import scipy
    from epspectra.exact_poly import Rational

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    commit = "unknown (not a git checkout)"
    head = os.path.join(root, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(root, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path) as fh:
                    commit = fh.read().strip()
    return {
        "rational_backend": Rational.__module__.split(".")[0],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "epspectra_threads": os.environ.get("EPSPECTRA_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(cpus),
        "commit": commit,
    }


def layer_metrics(tracer):
    """The per-layer figures of one traced pass, every name always present."""
    times = tracer.self_times()

    def calls(name):
        return times.get(name, (0, 0.0, 0.0))[0]

    def self_s(prefix):
        return sum(s for name, (_, s, _) in times.items()
                   if name == prefix or name.startswith(prefix + "."))

    out = {}
    for name in FUNCTION_SPANS:
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    for name in ("spectra.refine.inserted", "spectra.refine.unresolved", "ep_locator.eps_found"):
        out[name] = tracer.counters.get(name, 0)
    pair_counts = calls("ep_locator.pair_count")
    fallbacks = calls("ep_locator.exact_count")
    out["ep_locator.pair_counts"] = pair_counts
    out["ep_locator.exact_fallbacks"] = fallbacks
    out["ep_locator.fallback_ratio"] = 100.0 * fallbacks / pair_counts if pair_counts else 0.0
    eps = out["ep_locator.eps_found"]
    out["ep_locator.counts_per_ep"] = pair_counts / eps if eps else 0.0
    out["ep_locator.self_s"] = self_s("ep_locator")
    for key in workloads.VERIFY_KEYS:
        out[f"acceptance.{key}.total_s"] = times.get(f"acceptance.{key}", (0, 0.0, 0.0))[2]
    out["cli.self_s"] = self_s("cli")
    return out


# Spans reported as <name>.calls and <name>.self_s.
FUNCTION_SPANS = (
    "operators.build_float",
    "operators.build_exact",
    "operators.build_rotated",
    "operators.matmul",
    "exact_poly.faddeev",
    "exact_poly.continuant",
    "roots.polynomial_roots",
    "spectra.eigenvalues",
    "spectra.classify",
    "spectra.exact_spectrum",
    "spectra.match_branches",
    "spectra.matched_sweep",
    "spectra.sweep",
    "newton_polygon.analyze",
)

def measure(args):
    from epspectra import cli

    cpus = sorted(os.sched_getaffinity(0))
    pin(args.pass_offset, cpus)
    for argv in workloads.MINIMAL[args.workload]:
        run_job(cli, argv)
    kernel = calibrate.Kernel()
    for _ in range(3):
        kernel()
    job_list = workloads.jobs(args.workload, args.seed)
    passes, kernels, first, digests = [], [], None, []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < args.seconds:
        pin(args.pass_offset + len(passes), cpus)
        times, results, pass_kernels = run_pass(cli, job_list, kernel=kernel)
        passes.append(times)
        kernels.append(pass_kernels)
        if first is None:
            first = results
        digests.append([_digest(out) for _, out, _ in results])
        # hold the outputs of the first pass only, so that peak memory does
        # not grow with the number of passes that fit in ``--seconds``
        del results
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {"passes": passes, "kernels": kernels, "peak_rss_mib": peak_rss_mib, "jobs": job_list,
              "digests": digests[0], "environment": environment(cpus)}
    failures = []
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        with tracing.installed(tracer) as missing:
            traced_times, traced, traced_kernels = run_pass(cli, job_list, tracer, kernel)
        traced_wall = sum(traced_times)
        leftovers = tracing.leftover_wrappers()
        if leftovers:
            failures.append(f"wrappers left installed: {leftovers}")
        digests.append([_digest(out) for _, out, _ in traced])
        per_layer = layer_metrics(tracer)
        per_layer["cli.output_bytes"] = sum(len(out.encode()) for _, out, _ in traced)
        per_layer["cli.outputs_changed"] = sum(
            a != b for a, b in zip(digests[0], digests[-1]))
        per_layer["trace.overhead_s"] = (calibrate.scaled_wall([traced_times], [traced_kernels])
                                         - calibrate.scaled_wall(passes, kernels))
        report.update(per_layer=per_layer, traced_wall=traced_wall, missing_hooks=missing,
                      spans=len(tracer.spans))
        os.makedirs(args.out_dir, exist_ok=True)
        tracer.write_jsonl(os.path.join(
            args.out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))

    quality = {}
    if args.check:
        import checks

        refs = checks.ReferenceCache(os.path.join(args.out_dir, "refs", "eig_refs.json"))
        for argv, (code, out, err) in zip(job_list, first):
            problem = err if code is None else checks.check_job(argv, code, out, quality, refs)
            if problem:
                failures.append(f"{' '.join(argv)}: {problem}")
        refs.save()
    # every later pass must repeat the first pass's outputs byte for byte
    for n, pass_digests in enumerate(digests[1:], 2):
        for argv, a, b in zip(job_list, digests[0], pass_digests):
            if a != b:
                failures.append(f"{' '.join(argv)}: pass {n} output differs from pass 1")
    report.update(attempted=len(job_list) * len(digests), failures=failures, quality=quality)
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=1,
                        help="check the outputs of the first pass (0: only compare passes)")
    parser.add_argument("--pass-offset", type=int, default=0,
                        help="passes (or probes) already run; picks the CPU to start on")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()
    report = setup(args) if args.mode == "setup" else measure(args)
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
