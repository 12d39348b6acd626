"""Tests of the benchmark's own machinery: spans, hooks, seeds and checks."""

import contextlib
import io

import pytest

import calibrate
import checks
import jobs
import tracing
from epspectra import acceptance, cli, operators, spectra


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_nested_spans_give_self_time():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        traced_leaf()
        traced_leaf()
        clock.advance(0.5)

    def outer():
        clock.advance(3.0)
        traced_middle()

    traced_leaf = tracer.wrap(leaf, "a.leaf")
    traced_middle = tracer.wrap(middle, "a.middle")
    tracer.wrap(outer, "b.outer")()
    times = tracer.self_times()
    assert times["a.leaf"] == (2, 4.0, 4.0)
    assert times["a.middle"] == (1, 1.5, 5.5)
    assert times["b.outer"] == (1, 3.0, 8.5)
    assert [s[tracing.PARENT] for s in tracer.spans] == [-1, 0, 1, 1]


def test_span_name_from_result_and_on_result():
    tracer = tracing.Tracer()
    seen = []
    build = tracer.wrap(lambda kind: kind, lambda r: f"layer.{r}",
                        on_result=lambda r, a, k: seen.append(r))
    assert build("x") == "x"
    assert tracer.spans[0][tracing.NAME] == "layer.x"
    assert seen == ["x"]


SMALL_JOBS = [
    ["spectrum", "-N", "3", "--c", "0.1", "--gamma", "0:1.5:7"],
    ["trajectory", "-N", "3", "--gamma", "0.9", "--c", "0.01:1:6:log"],
    ["ep-map", "-N", "3", "--c", "0.1:1:2:log"],
    ["charpoly", "-N", "3", "--gamma", "1"],
    ["newton", "-N", "3"],
    ["verify", "--only", "n5-charpoly,classification"],
]


def _run(job_list):
    outputs = []
    for argv in job_list:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(list(argv)) == 0
        outputs.append(buf.getvalue())
    return outputs


def test_traced_outputs_match_and_wrappers_are_removed():
    originals = (cli.main, spectra.eigenvalues, operators.OperatorMatrix.matmul,
                 spectra.build_generalized_hamiltonian, list(acceptance.CRITERIA))
    plain = _run(SMALL_JOBS)
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as missing:
        assert spectra.eigenvalues is not originals[1]
        traced = _run(SMALL_JOBS)
    assert missing == []
    assert traced == plain
    assert tracing.leftover_wrappers() == []
    assert (cli.main, spectra.eigenvalues, operators.OperatorMatrix.matmul,
            spectra.build_generalized_hamiltonian, list(acceptance.CRITERIA)) == originals
    times = tracer.self_times()
    for name in ("operators.build_float", "operators.build_exact", "operators.matmul",
                 "spectra.eigenvalues", "spectra.matched_sweep", "ep_locator.pair_count",
                 "newton_polygon.analyze", "acceptance.n5-charpoly"):
        assert times[name][0] > 0, name
    assert tracer.counters["ep_locator.eps_found"] > 0


def test_wrappers_are_removed_when_the_block_raises():
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            raise RuntimeError("boom")
    assert tracing.leftover_wrappers() == []


def test_seed_zero_is_the_readme_and_seeds_are_reproducible():
    assert jobs.jobs("dense-sweep", 0)[0] == [
        "spectrum", "-N", "11", "--c", "0.00909090909", "--gamma", "0:1.5:500"]
    # ep-map runs the README grid one exact point at a time
    points = [cli.parse_range(job[-1]) for job in jobs.jobs("ep-map", 0)]
    assert [p.steps for p in points] == [1] * 24
    assert [p.grid()[0] for p in points] == list(cli.parse_range("0.004:7.3:24:log").grid())
    assert jobs.jobs("ep-map", 7) == jobs.jobs("ep-map", 7) != jobs.jobs("ep-map", 0)
    assert jobs.jobs("exact-verify", 3) == jobs.jobs("exact-verify", 0)
    shifted = cli.parse_range(jobs.jobs("dense-sweep", 4)[1][-1])
    step = 1.5 / 499
    assert shifted.steps == 500 and 0.0 < shifted.lo < step
    assert shifted.hi - shifted.lo == pytest.approx(1.5)


def test_scaled_wall_takes_out_the_machine_speed():
    ref = calibrate.REFERENCE_S
    # the second pass ran at half speed: its jobs and kernels took twice as long
    passes = [[1.0, 2.0], [2.0, 4.0], [1.1, 2.0]]
    kernels = [[ref, ref, ref], [2 * ref, 2 * ref, 2 * ref], [ref, ref, ref]]
    assert calibrate.scaled_wall(passes, kernels) == pytest.approx(3.0)
    # a job is scaled by the kernels on either side of it
    assert calibrate.scaled_wall([[1.0, 1.0]], [[ref, 3 * ref, ref]]) == pytest.approx(1.0)


def test_exact_verify_runs_every_criterion():
    keys = [entry[0] for entry in acceptance.CRITERIA]
    assert sorted(jobs.VERIFY_KEYS + ("ring-law",)) == sorted(keys)


def test_checks_accept_good_and_reject_bad_outputs():
    outputs = _run(SMALL_JOBS)
    quality = {}
    for argv, text in zip(SMALL_JOBS, outputs):
        if argv[0] == "charpoly":
            continue  # recorded digests belong to the full jobs
        assert checks.check_job(argv, 0, text, quality, checks.ReferenceCache(None)) is None
    assert quality["eig_err_max"] < 1e-9
    assert quality["krein_residual_max"] < 1e-9
    assert quality["ep_unconfirmed"] == 0
    truncated = outputs[0].rsplit("\n", 3)[0] + "\n"
    assert "multiple of N+1" in checks.check_job(SMALL_JOBS[0], 0, truncated, {}, None)
    assert checks.check_job(["charpoly", "-N", "5", "--gamma", "1"], 0, "x", {}, None)
    assert checks.check_job(SMALL_JOBS[4], 2, outputs[4], {}, None) == "exit code 2"
    assert "verify reported" in checks.check_job(["verify"], 0, outputs[5], {}, None)
