"""CLI subcommands: formats, exit codes, determinism."""

import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epspectra
from epspectra import cli, ep_locator, spectra
from epspectra._roots import RootFindingError
from epspectra.cli import main, parse_range
from epspectra.exact_poly import ParamPoly, charpoly_of_tridiagonal
from epspectra.operators import ModelParams, UsageError, build_generalized_hamiltonian


def run_cli(tmp_path, *args, name="out.txt"):
    out = tmp_path / name
    code = main(list(args) + ["--output", str(out)])
    return code, out.read_text() if out.exists() else ""


def run_fresh(code):
    """Run ``code`` in a fresh interpreter on this package; its stdout lines."""
    src = str(Path(epspectra.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().split("\n")


class TestRangeParsing:
    def test_linear(self):
        r = parse_range("0:1.5:500")
        assert (r.lo, r.hi, r.steps, r.spacing) == (0.0, 1.5, 500, "linear")
        assert len(r.grid()) == 500

    def test_log(self):
        r = parse_range("0.001:10:4:log")
        g = r.grid()
        assert np.allclose(np.diff(np.log(g)), np.log(g[1] / g[0]))

    def test_exact_decimals(self):
        r = parse_range("0.1:0.3:3")
        assert r.lo == pytest.approx(0.1)

    def test_bad_ranges(self):
        for bad in ("1:0:5", "0:1:0", "0:1", "a:b:3", "0:1:5:cubic", "-1:1:3:log",
                    "0:1.5:1", "0.5:0.1:1"):
            with pytest.raises(UsageError):
                parse_range(bad)


class TestSpectrumCommand:
    def test_row_count_and_header(self, tmp_path):
        code, text = run_cli(
            tmp_path, "spectrum", "--particles", "11", "--v", "1",
            "--c", "0.00909090909", "--gamma", "0:1.5:500",
        )
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == "param,branch,re,im"
        assert len(lines) == 1 + 500 * 12

    def test_c0_matches_analytic_law(self, tmp_path):
        code, text = run_cli(
            tmp_path, "spectrum", "--particles", "4", "--c", "0", "--gamma", "0:0.6:3",
        )
        assert code == 0
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        by_gamma = {}
        for g, b, re, im in rows:
            by_gamma.setdefault(float(g), []).append(complex(float(re), float(im)))
        for g, vals in by_gamma.items():
            s = np.sqrt(1.0 - g * g)
            expected = np.sort(np.arange(-4, 5, 2) * s)
            assert np.allclose(np.sort([v.real for v in vals]), expected, atol=1e-9)

    def test_json_schema(self, tmp_path):
        code, text = run_cli(
            tmp_path, "spectrum", "--particles", "3", "--c", "0.1",
            "--gamma", "0:1:5", "--format", "json", name="out.json",
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["metadata"]["N"] == 3
        assert len(doc["spectra"]) == 5
        assert len(doc["spectra"][0]["eigenvalues"]) == 4
        assert {"re", "im"} <= set(doc["spectra"][0]["eigenvalues"][0])

    def test_determinism(self, tmp_path):
        args = ("spectrum", "--particles", "5", "--c", "0.02", "--gamma", "0:1.2:40")
        _, a = run_cli(tmp_path, *args, name="a.csv")
        _, b = run_cli(tmp_path, *args, name="b.csv")
        assert a == b


class TestTextFormat:
    @pytest.mark.parametrize("args", [
        ("spectrum", "-N", "4", "--c", "0.3", "--gamma", "0:1.2:7"),
        ("trajectory", "-N", "6", "--gamma", "0.5", "--c", "0.01:0.01:1"),
    ])
    def test_sweep_text_is_csv_with_spaces(self, tmp_path, args):
        _, csv = run_cli(tmp_path, *args, name="a.csv")
        _, text = run_cli(tmp_path, *args, "--format", "text", name="a.txt")
        assert text.count("\n") > 2 and text == csv.replace(",", " ")

    def test_trajectory_text_is_branch_major(self, tmp_path):
        args = ("trajectory", "-N", "3", "--gamma", "0.7", "--c", "0.1:2:7")
        _, csv = run_cli(tmp_path, *args, name="a.csv")
        _, text = run_cli(tmp_path, *args, "--format", "text", name="a.txt")
        csv_rows = [line.split(",") for line in csv.strip().split("\n")]
        text_rows = [line.split(" ") for line in text.strip().split("\n")]
        assert text_rows[0] == ["c", "branch", "re", "im"] and csv_rows[0][0] == "c"
        # CSV is point-major; a stable sort by branch gives the text order
        assert text_rows[1:] == sorted(csv_rows[1:], key=lambda row: int(row[1]))
        assert len(text_rows) == 1 + 4 * 7


def _fmt_oracle(x):
    return format(float(x), ".17g")


def _table_oracle(param_header, grid, rows, fmt):
    """The point-major table as it was rendered before templates: one ``format`` per float."""
    sep = "," if fmt == "csv" else " "
    lines = [sep.join((param_header, "branch", "re", "im"))]
    for x, row in zip(grid, rows):
        p = _fmt_oracle(x)
        lines.extend(sep.join((p, str(b), _fmt_oracle(z.real), _fmt_oracle(z.imag)))
                     for b, z in enumerate(row))
    return "\n".join(lines) + "\n"


def _branch_table_oracle(trajectories):
    lines = ["c branch re im"]
    for t in trajectories:
        for p, z in zip(t.parameters, t.values):
            lines.append(f"{_fmt_oracle(p)} {t.branch} {_fmt_oracle(z.real)} {_fmt_oracle(z.imag)}")
    return "\n".join(lines) + "\n"


_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
            2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
            1e16, 1e17, 9007199254740993.0, 0.1, 1 / 3, 1e-5, 123456789012345680.0]
# any float: hypothesis's own, the edge values above, and raw bit patterns
# (every NaN payload, subnormals, both zeros)
_FLOATS = st.one_of(
    st.floats(), st.sampled_from(_SPECIAL),
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]))


class TestRenderingIsByteIdentical:
    """The templated tables against the per-value renderer they replaced."""

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.sampled_from(["csv", "text"]))
    def test_point_major_table(self, data, fmt):
        width = data.draw(st.integers(1, 41))
        points = data.draw(st.integers(1, 4))
        grid = np.array(data.draw(st.lists(_FLOATS, min_size=points, max_size=points)))
        flat = data.draw(st.lists(_FLOATS, min_size=2 * width * points,
                                  max_size=2 * width * points))
        rows = np.array(flat).reshape(points, 2 * width).view(complex)
        assert "".join(cli._table("param", grid, rows, fmt)) == _table_oracle("param", grid, rows, fmt)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_branch_major_text(self, data):
        width = data.draw(st.integers(1, 41))
        points = data.draw(st.integers(1, 4))
        grid = np.array(data.draw(st.lists(_FLOATS, min_size=points, max_size=points)))
        flat = data.draw(st.lists(_FLOATS, min_size=2 * width * points,
                                  max_size=2 * width * points))
        values = np.array(flat).reshape(width, 2 * points).view(complex)
        trajectories = [spectra.Trajectory(branch=b, parameters=grid.copy(), values=row)
                        for b, row in enumerate(values)]
        assert "".join(cli._branch_table(trajectories)) == _branch_table_oracle(trajectories)


class TestTrajectoryCommand:
    def test_single_point_rows(self, tmp_path):
        code, text = run_cli(
            tmp_path, "trajectory", "--particles", "11", "--gamma", "1",
            "--c", "0.05:0.05:1",
        )
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == "c,branch,re,im"
        assert len(lines) == 13

    def test_one_point_json_has_the_grid_schema(self, tmp_path):
        docs = []
        for c in ("0.05:0.05:1", "0.05:0.1:3"):
            code, text = run_cli(tmp_path, "trajectory", "-N", "3", "--gamma", "1",
                                 "--c", c, "--format", "json", name="t.json")
            assert code == 0
            docs.append(json.loads(text))
        one, many = docs
        assert set(one) == set(many) == {"metadata", "trajectories"}
        assert set(one["metadata"]) == set(many["metadata"])
        assert one["metadata"]["unresolved_steps"] == []
        assert [len(t["points"]) for t in one["trajectories"]] == [1] * 4

    def test_n5_two_triplet_star(self, tmp_path):
        code, text = run_cli(
            tmp_path, "trajectory", "--particles", "5", "--gamma", "1",
            "--c", "0.0004:0.04:12:log",
        )
        assert code == 0
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        smallest_c = min(float(r[0]) for r in rows)
        vals = [
            complex(float(re), float(im))
            for c, b, re, im in rows
            if float(c) == smallest_c
        ]
        mods = np.sort(np.abs(vals))
        # two rings of three: moduli cluster in two groups of three, with
        # within-ring spread bounded by the next Puiseux order ~ c^(1/3)
        spread_tol = 5.0 * smallest_c ** (1.0 / 3.0)
        assert np.ptp(mods[:3]) / mods[0] < spread_tol
        assert np.ptp(mods[3:]) / mods[3] < spread_tol
        assert mods[3] / mods[2] > 2.0

    def test_branch_continuity(self, tmp_path):
        code, text = run_cli(
            tmp_path, "trajectory", "--particles", "3", "--gamma", "0.2",
            "--c", "0.01:0.2:20",
        )
        assert code == 0
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        by_branch = {}
        for c, b, re, im in rows:
            by_branch.setdefault(int(b), []).append(complex(float(re), float(im)))
        for vals in by_branch.values():
            steps = np.abs(np.diff(np.array(vals)))
            assert steps.max() < 0.5


class TestCharpolyCommand:
    def test_n5_matches_paper_lines(self, tmp_path):
        code, text = run_cli(tmp_path, "charpoly", "--particles", "5", "--gamma", "1")
        assert code == 0
        assert "p[1] = 35 * c^1" in text
        assert "p[3] = -448 * c^1 + 4645/2 * c^3" in text
        assert "lambda^3: 448 * c^1 - 4645/2 * c^3" in text
        assert "lambda^0: 6400 * c^2 - 30600 * c^4 + 50625/64 * c^6" in text

    def test_n1_hand_checkable(self, tmp_path):
        # 2x2 determinant by hand: chi = lambda^2 - c lambda + c^2/4
        code, text = run_cli(tmp_path, "charpoly", "--particles", "1", "--gamma", "1")
        assert code == 0
        assert "lambda^2: 1" in text
        assert "lambda^1: -1 * c^1" in text
        assert "lambda^0: 1/4 * c^2" in text

    def test_fixed_c_zero_gives_pure_power(self, tmp_path):
        code, text = run_cli(
            tmp_path, "charpoly", "--particles", "4", "--gamma", "1", "--c", "0"
        )
        assert code == 0
        assert "lambda^5: 1" in text
        assert text.count("= 0") + text.count(": 0") >= 5

    def test_gamma_off_ep_is_fine(self, tmp_path):
        code, text = run_cli(
            tmp_path, "charpoly", "--particles", "3", "--gamma", "0.25", "--c", "0.125"
        )
        assert code == 0
        assert "lambda^4: 1" in text


class TestNewtonCommand:
    def test_n5_text(self, tmp_path):
        code, text = run_cli(tmp_path, "newton", "--particles", "5")
        assert code == 0
        assert "segment mu = 1/3" in text
        assert "6400 + 448 * e^3 + 1 * e^6" in text
        assert "predicted 2 ring(s) of size 3 + remainder 0" in text

    def test_n10_json(self, tmp_path):
        code, text = run_cli(
            tmp_path, "newton", "--particles", "10", "--format", "json", name="n.json"
        )
        assert code == 0
        doc = json.loads(text)
        assert {seg["mu"] for seg in doc["segments"]} == {"1", "1/3"}
        assert doc["predicted"] == {"ring_count": 3, "ring_size": 3, "remainder": 2}
        assert doc["observed_ring_sizes"] == {"1": 2, "3": 3}

    def test_n4_k4_single_ring(self, tmp_path):
        code, text = run_cli(
            tmp_path, "newton", "--particles", "4", "--pert-power", "4"
        )
        assert code == 0
        assert "predicted 1 ring(s) of size 5 + remainder 0" in text

    def test_delta_variant(self, tmp_path):
        code, text = run_cli(
            tmp_path, "newton", "--particles", "5", "--pert-power", "1"
        )
        assert code == 0
        assert "parameter Delta" in text
        assert "segment mu = 1/2" in text

    @pytest.mark.xfail(strict=True, reason="float roots of the reduced polynomial miss the "
                       "ring law from N = 50 at k = 1 (ROADMAP item 13)")
    def test_n50_k1_follows_the_ring_law(self, tmp_path):
        # the law predicts 25 pairs + 1; today the command prints observed
        # sizes {1: 15, 2: 18} and exits 0
        code, text = run_cli(tmp_path, "newton", "-N", "50", "--pert-power", "1",
                             "--format", "json", name="n.json")
        assert code == 0
        doc = json.loads(text)
        pred = doc["predicted"]
        observed = {int(s): n for s, n in doc["observed_ring_sizes"].items()}
        others = sum(s * n for s, n in observed.items() if s != pred["ring_size"])
        assert (pred["ring_count"], pred["ring_size"], pred["remainder"]) == (25, 2, 1)
        assert observed.get(pred["ring_size"], 0) == pred["ring_count"]
        assert others == pred["remainder"]


class TestEpMapCommand:
    def test_single_c(self, tmp_path):
        code, text = run_cli(
            tmp_path, "ep-map", "--particles", "5", "--c", "0.02:0.02:1"
        )
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == "c,index,gamma_tilde,order,method"
        assert all(line.endswith("2,pair-count-bisection") for line in lines[1:])
        assert len(lines) == 4  # N=5: three EPs

    def test_stack_failure_names_the_point(self, capsys):
        assert main(["ep-map", "-N", "3", "--c", "1e300:1e308:2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:")
        assert "(N=3, gamma=0.0, v=1.0, c=1e+308)" in err

    def test_tight_bracket_at_strong_coupling(self, tmp_path):
        # bisection ends within 1e-15 of each EP, where the two members of
        # a conjugate pair must still be counted alike
        code, text = run_cli(
            tmp_path, "ep-map", "-N", "11", "--c", "7.3:7.3:1", "--tol", "1e-15")
        assert code == 0
        assert len(text.strip().split("\n")) == 1 + 6

    def test_loads_no_scipy(self):
        # a fresh interpreter: mapping EPs, the checks that match spectra
        # and branch matching all run without scipy
        code = ("import sys\n"
                "from epspectra.cli import main\n"
                "assert main(['ep-map', '-N', '3', '--c', '0.1:0.1:1']) == 0\n"
                "assert main(['verify', '--only', 'c0-spectrum,krein-symmetry,"
                "classification,strong-coupling']) == 0\n"
                "assert main(['trajectory', '-N', '5', '--gamma', '1', "
                "'--c', '0.0004:0.04:60:log']) == 0\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
        assert run_fresh(code)[-1] == "[]"

    def test_each_command_loads_only_its_modules(self):
        # a fresh interpreter: the package root loads no submodule, spectrum
        # and trajectory load none of the three modules below, nor numpy.ma
        # (branch matching takes its median without np.median), and ep-map
        # adds ep_locator alone
        code = ("import os, sys\n"
                "import epspectra\n"
                "print(sorted(m for m in sys.modules if m.startswith('epspectra.')))\n"
                "from epspectra.cli import main\n"
                "assert 'numpy.ma' not in sys.modules\n"
                "heavy = ('epspectra.acceptance', 'epspectra.ep_locator', "
                "'epspectra.newton_polygon')\n"
                "out = ['--output', os.devnull]\n"
                "assert main(['spectrum', '-N', '11', '--c', '0.01', "
                "'--gamma', '0:1.5:20', *out]) == 0\n"
                "for fmt in ('csv', 'text', 'json'):\n"
                "    assert main(['trajectory', '-N', '5', '--gamma', '1', "
                "'--c', '0.0004:0.04:20:log', '--format', fmt, *out]) == 0\n"
                "print([m for m in heavy if m in sys.modules])\n"
                "assert 'numpy.ma' not in sys.modules\n"
                "assert main(['ep-map', '-N', '3', '--c', '0.1:0.1:1', *out]) == 0\n"
                "print([m for m in heavy if m in sys.modules])\n")
        assert run_fresh(code) == ["[]", "[]", "['epspectra.ep_locator']"]

    def test_json_mirror(self, tmp_path):
        code, text = run_cli(
            tmp_path, "ep-map", "--particles", "2", "--c", "0.01:0.1:2",
            "--format", "json", name="m.json",
        )
        assert code == 0
        doc = json.loads(text)
        assert len(doc["map"]) == 2
        assert doc["metadata"]["N"] == 2


class TestExitCodes:
    def test_usage_error_bad_range(self, tmp_path, capsys):
        assert main(["spectrum", "--particles", "3", "--gamma", "nope"]) == 1

    @pytest.mark.parametrize("error", [spectra.SpectralError, spectra.ClassificationError,
                                       RootFindingError, ep_locator.EPLocationError])
    def test_every_numerical_error_exits_2(self, error, monkeypatch, capsys):
        # main catches their shared base, whichever module raised them
        def fail(*args, **kwargs):
            raise error("no spectrum here")

        monkeypatch.setattr(spectra, "sweep", fail)
        monkeypatch.setattr(ep_locator, "ep_map", fail)
        for argv in (["spectrum", "-N", "2", "--gamma", "0:1:2"],
                     ["ep-map", "-N", "2", "--c", "0.1:0.1:1"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == "numerical failure: no spectrum here\n"

    def test_usage_error_missing_args(self):
        assert main(["spectrum"]) == 1

    def test_usage_error_zero_particles(self):
        assert main(["spectrum", "--particles", "0", "--gamma", "0:1:3"]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("argv", [
        ["ep-map", "-N", "3", "--c", "0.1:0.2:2", "--gamma", "3"],
        ["spectrum", "--part", "2", "--gam", "0:1:2"],
        ["newton", "-N", "5", "--pert", "delta"],
    ])
    def test_options_must_be_spelled_in_full(self, argv, capsys):
        # a prefix of an option, or the removed newton --pert, is no option
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage error:")

    def test_ep_map_rejects_pert_power_and_text(self):
        # ep-map always maps the k = 2 model and writes CSV or JSON
        assert main(["ep-map", "--particles", "5", "--c", "0.02:0.02:1",
                     "--pert-power", "3"]) == 1
        assert main(["ep-map", "--particles", "5", "--c", "0.02:0.02:1",
                     "--format", "text"]) == 1

    def test_ep_map_rejects_nonpositive_c_grid(self, capsys):
        assert main(["ep-map", "--particles", "2", "--c", "0:1:3"]) == 1
        assert capsys.readouterr().err.startswith("usage error:")

    @pytest.mark.parametrize("tol", ["0", "-1e-9", "nan", "inf"])
    def test_ep_map_rejects_bad_tol(self, tol, capsys):
        assert main(["ep-map", "--particles", "2", "--c", "0.1:0.1:1", f"--tol={tol}"]) == 1
        assert capsys.readouterr().err.startswith("usage error:")

    def test_unwritable_output_is_a_usage_error(self, tmp_path, capsys):
        # a directory, or a file in a directory that does not exist, used to
        # end in a traceback after the whole computation
        for path in (tmp_path, tmp_path / "missing" / "x.txt"):
            assert main(["charpoly", "-N", "2", "--gamma", "1", "-o", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"usage error: cannot write {str(path)!r}: ")
            assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("gamma_max", ["-3", "0"])
    def test_ep_map_rejects_nonpositive_gamma_max(self, gamma_max, capsys):
        # -3 used to print unrefined cell midpoints, 0 no EPs, both with exit 0
        assert main(["ep-map", "-N", "3", "--c", "0.1:0.1:1", f"--gamma-max={gamma_max}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage error:")

    @pytest.mark.parametrize("argv", [
        ["spectrum", "-N", "3", "--gamma", "0:1:3", "--v", "1e400"],
        ["spectrum", "-N", "3", "--gamma", "0:1:3", "--c", "1e400"],
        ["spectrum", "-N", "3", "--gamma", "0:1e400:3"],
        ["spectrum", "-N", "3", "--gamma=-1e400:1:3"],
        ["trajectory", "-N", "3", "--gamma", "1e400", "--c", "0.1:1:3"],
        ["trajectory", "-N", "3", "--gamma", "1", "--c", "0.1:1e400:3:log"],
        ["ep-map", "-N", "3", "--c", "0.1:0.1:1", "--gamma-max", "1e400"],
        ["ep-map", "-N", "3", "--c", "0.1:0.1:1", "--v", "1e400"],
    ])
    def test_too_large_for_a_float(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage error:")

    @pytest.mark.parametrize("v", ["1e200", "1e400", "1e-200", "1e-400"])
    def test_exact_v_beyond_the_float_range(self, v, capsys):
        # the reduced polynomials' coefficients scale like powers of v and
        # overflow or underflow as floats (1e-400 is no float, but it is not
        # 0 either); an exact power-of-two rescaling brings them into range,
        # so the rings are those of v = 1, the triplet's modulus times v^(2/3)
        assert main(["newton", "-N", "3", "--v", v, "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads(captured.out)
        assert doc["observed_ring_sizes"] == {"1": 1, "3": 1}
        expected = 3.6342411856642793 * 10 ** (2 / 3 * int(v[2:]))
        for ring in doc["rings"]:
            if ring["size"] == 3:
                assert ring["modulus"] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("v", ["1e1000", "1e-1000"])
    def test_leading_coefficient_beyond_the_float_range(self, v, capsys):
        # the triplet's e1 is about 1e+-667 here, no float
        assert main(["newton", "-N", "3", "--v", v]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("numerical failure:")

    @pytest.mark.parametrize("argv", [
        ["spectrum", "-N", "3", "--gamma", "0:1e308:3", "--c", "1"],
        ["spectrum", "-N", "4", "--gamma", "0:1:3", "--c", "1e308"],
        ["trajectory", "-N", "4", "--gamma", "1", "--c", "1e300:1e308:3:log"],
        ["spectrum", "-N", "11", "--c", "0.01", "--gamma", "0:1:3", "--pert-power", "2000"],
        ["trajectory", "-N", "11", "--gamma", "0.5", "--c", "0.01:1:3", "--pert-power", "2000"],
    ])
    def test_overflow_is_one_numerical_failure_line(self, argv, capsys):
        # the overflowing diagonal, or the overflowing m^k of a large k, is
        # reported by the eigensolver guard alone, with no numpy warning
        # before it
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure:")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    def test_zero_c_with_an_overflowing_power_is_the_zero_c_spectrum(self, tmp_path):
        # 2 c m^k is an exact zero at c = 0, though m^2000 overflows; the
        # c = 0.01 job above still exits 2
        args = ("spectrum", "-N", "11", "--gamma", "0:1:3")
        code, text = run_cli(tmp_path, *args, "--pert-power", "2000")
        assert code == 0 and text.count("\n") == 1 + 3 * 12
        assert text == run_cli(tmp_path, *args, "--pert-power", "2")[1]

    def test_diverging_polish_is_one_numerical_failure_line(self, capsys):
        # at N = 110 the reduced polynomial overflows the float Horner
        # evaluation: exit 2 with one line and no numpy warning, which this
        # suite's warning filter would raise
        assert main(["newton", "-N", "110"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical failure: Newton polishing diverged\n"

    @pytest.mark.parametrize("v", ["1e400", "1e-400"])
    def test_charpoly_of_any_nonzero_exact_v(self, v, capsys):
        assert main(["charpoly", "-N", "3", "--gamma", "1", "--v", v]) == 0
        captured = capsys.readouterr()
        exact = str(10**400) if v == "1e400" else f"1/{10**400}"
        assert f"v={exact}, c symbolic" in captured.out and captured.err == ""
        assert "\nlambda^4: 1\n" in captured.out

    def test_charpoly_prints_ints_beyond_the_str_digit_limit(self, capsys):
        # m^1000 gives coefficients of up to ~9,000 digits, beyond the 4,300
        # that str() of a Fraction's int allows by default; both backends
        # print every digit, those of str() with the limit lifted
        argv = ["charpoly", "-N", "12", "--gamma", "1", "--pert-power", "1000"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        params = ModelParams(particles=12, gamma=1, c=ParamPoly.monomial(1, 1), pert_power=1000)
        cp = charpoly_of_tridiagonal(build_generalized_hamiltonian(params, "monomial"))
        parts = [abs(x) for p in cp.monic_coefficients() for g in p.coeffs.values()
                 for x in (g.re, g.im) if x]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            digits = [str(x) for x in parts]
        finally:
            sys.set_int_max_str_digits(limit)
        assert max(map(len, digits)) > 4300
        assert all(d in captured.out for d in digits)
        # and so does the header, of a parameter given with 5,001 digits
        assert main(["charpoly", "-N", "1", "--gamma", "1e5000"]) == 0
        assert f"gamma=1{'0' * 5000}, v=1," in capsys.readouterr().out

    def test_charpoly_rejects_format(self):
        assert main(["charpoly", "--particles", "3", "--gamma", "1", "--format", "json"]) == 1

    def test_newton_rejects_csv(self):
        assert main(["newton", "--particles", "3", "--format", "csv"]) == 1

    def test_verify_subset_passes_and_is_deterministic(self, tmp_path):
        args = ("verify", "--only", "n5-charpoly,newton-n5")
        code_a, a = run_cli(tmp_path, *args, name="a.txt")
        code_b, b = run_cli(tmp_path, *args, name="b.txt")
        assert code_a == 0 and code_b == 0
        assert a == b
        assert a.count("PASS") == 3  # two criteria + the summary line

    @pytest.mark.parametrize("only", ["ring-laww", "n5-charpoly,bogus"])
    def test_verify_rejects_unknown_keys(self, only, capsys):
        assert main(["verify", "--only", only]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage error:")
        assert repr(only.split(",")[-1]) in captured.err and "ring-law" in captured.err

    def test_verify_zero_tolerance_fails_loudly(self, tmp_path):
        code, text = run_cli(
            tmp_path, "verify", "--only", "c0-spectrum", "--zero-tolerance", name="z.txt"
        )
        assert code == 3
        assert "FAIL" in text

    def test_exact_route_criteria_fail_at_zero_tolerance(self, tmp_path):
        # the stacked exact route still leaves rounding residuals that a zero
        # tolerance must catch, criterion by criterion
        keys = ("c0-spectrum", "puiseux-scaling", "krein-symmetry")  # report order
        code, text = run_cli(tmp_path, "verify", "--only", ",".join(keys), "--zero-tolerance")
        assert code == 3
        assert [line.split(":")[0] for line in text.splitlines()[:-1]] == [
            f"FAIL {key}" for key in keys]


class TestParserReuse:
    def test_calls_match_fresh_parsers(self, capsys):
        # valid, usage error, another subcommand, then the first again: the
        # process-wide parser gives what a parser built for each call gives
        runs = [
            ["charpoly", "-N", "3", "--gamma", "1/2", "--c", "1/7"],
            ["charpoly", "-N", "3"],
            ["spectrum", "-N", "3", "--gamma", "0:1:3", "--format", "json"],
            ["verify", "--only", "bogus"],
            ["newton", "-N", "4", "--format", "json"],
            ["charpoly", "-N", "3", "--gamma", "1/2", "--c", "1/7"],
        ]

        def outcomes():
            out = []
            for argv in runs:
                code = main(argv)
                out.append((code, capsys.readouterr()))
                if fresh:
                    cli._build_parser.cache_clear()
            return out

        fresh = False
        cached = outcomes()
        fresh = True
        assert outcomes() == cached
        assert [code for code, _ in cached] == [0, 1, 0, 1, 0, 0]
        assert cached[0] == cached[-1]
        assert cli._build_parser() is cli._build_parser()


class TestSizeLimits:
    """Oversized dense inputs exit 1 before anything is allocated."""

    @pytest.fixture(autouse=True)
    def no_allocation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a grid or a matrix was built")

        monkeypatch.setattr(cli.RangeSpec, "grid", refuse)
        for module, name in ((cli.spectra, "sweep"), (cli.spectra, "matched_sweep"),
                             (ep_locator, "ep_map")):
            monkeypatch.setattr(module, name, refuse)

    @staticmethod
    def commands(particles, steps):
        n = str(particles)
        return [
            ["spectrum", "-N", n, "--gamma", f"0:1:{steps}"],
            ["trajectory", "-N", n, "--gamma", "1", "--c", f"0.001:1:{steps}"],
            ["ep-map", "-N", n, "--c", f"0.001:1:{steps}"],
        ]

    def test_matrix_just_over_the_limit(self, capsys):
        dim = math.isqrt(cli._MAX_MATRIX_ENTRIES) + 1  # (N+1)^2 just above the limit
        for argv in self.commands(dim - 1, 2):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error:") and str(cli._MAX_MATRIX_ENTRIES) in err

    def test_grid_just_over_the_limit(self, capsys):
        steps = cli._MAX_GRID_VALUES // 12 + 1  # N = 11: points x (N+1) just above
        for argv in self.commands(11, steps):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error:") and str(cli._MAX_GRID_VALUES) in err

    def test_limits_are_far_above_the_benchmark_jobs(self):
        # the largest dense jobs: N = 40 over 500 gamma points
        assert 41 * 41 * 100 < cli._MAX_MATRIX_ENTRIES
        assert 500 * 41 * 100 < cli._MAX_GRID_VALUES


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_dense_output_memory_is_bounded_by_the_eigenvalues(fmt):
    # the output is written as it is rendered, so the traced peak stays
    # within four times the 5000 x 12 complex eigenvalue array (0.92 MiB);
    # rendering the whole text first peaked at 9.8 MiB (csv), 24.4 MiB (json)
    argv = ["spectrum", "-N", "11", "--c", "0.00909090909", "--format", fmt,
            "--output", os.devnull]
    assert main(argv + ["--gamma", "0:1.5:2"]) == 0  # imports outside the trace
    tracemalloc.start()
    try:
        assert main(argv + ["--gamma", "0:1.5:5000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 5000 * 12 * 16


class TestExactSizeLimit:
    """charpoly and newton exit 1 past _MAX_EXACT_DIM rows, before H is built."""

    @pytest.fixture
    def builds(self, monkeypatch):
        from epspectra import newton_polygon

        calls = []
        for module in (cli, newton_polygon):
            real = module.build_generalized_hamiltonian
            monkeypatch.setattr(module, "build_generalized_hamiltonian",
                                lambda *a, f=real, **kw: calls.append(a) or f(*a, **kw))
        return calls

    @staticmethod
    def commands(particles):
        n = str(particles)
        return [["charpoly", "-N", n, "--gamma", "1"],
                ["charpoly", "-N", n, "--gamma", "1", "--c", "1"],
                ["newton", "-N", n], ["newton", "-N", n, "--pert-power", "1"]]

    def test_refused_before_the_build(self, builds, capsys):
        for argv in self.commands(cli._MAX_EXACT_DIM):
            assert main(argv + ["--output", os.devnull]) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error:") and str(cli._MAX_EXACT_DIM) in err
        assert builds == []

    def test_small_inputs_reach_the_builder(self, builds):
        for argv in self.commands(3):
            assert main(argv + ["--output", os.devnull]) == 0
        assert len(builds) == 4


def _charpoly_jobs(N):
    for k in (1, 2, 3):
        for v in ("1", "3/2"):
            for c in ([], ["--c", "1/50"]):
                yield ["charpoly", "-N", str(N), "--gamma", "3/10", "--v", v,
                       "--pert-power", str(k), *c]


def _newton_jobs(N):
    for k in ((1, 2) if N == 10 else range(1, N + 1)):
        for v in ("1", "3/2"):
            for fmt in ("text", "json"):
                yield ["newton", "-N", str(N), "--pert-power", str(k), "--v", v, "--format", fmt]


def _output_digest(tmp_path, jobs):
    """sha256 over each job's command line and output text, in order."""
    h = hashlib.sha256()
    for argv in jobs:
        code, text = run_cli(tmp_path, *argv)
        assert code == 0, argv
        h.update(f"$ {' '.join(argv)}\n{text}".encode())
    return h.hexdigest()


# sha256 of each group's jobs, recorded before the monomial builder stopped
# filling a dense matrix; the exact layer must not change one output byte
_DIGESTS = {
    ('charpoly', 1): "fe58c56b106f2da95fae97a44416045162162dd18da2478d3cfc05c28c29e574",
    ('charpoly', 2): "0e1e0efcd7929b4f09212fc75989176150feefd5fb0a2b496fdecb358fdb61f0",
    ('charpoly', 3): "40d879702f59d10ad75b2753f8bb07d643164053f9d34d6acea1071b05c21d35",
    ('charpoly', 4): "d3ef7082ea5e0d09177f6de950a00a27f0ca22508ad3c9e0db5931e3e11bb6a9",
    ('charpoly', 5): "1cb5538fbc567dcb2fdf6f044c0738a8aa1b2186b75e22c930555d5ca4681e77",
    ('charpoly', 6): "fc7147850d931c9925d1c7e61910e2131626e24c75c5a2142af5f7552a67f635",
    ('charpoly', 7): "fd039b2823b31fa865d849935c53f1659e56746e431bdaab89682902c652c18a",
    ('newton', 1): "50515765886c7f89f686fed568b79a03de52df7366f2893bf6b884621eb69937",
    ('newton', 2): "8536c5cc2aa89aa69daf1f627805938bd835ad511292f621e88bc0c6b8179895",
    ('newton', 3): "22a6329a930bb50eec8797cec60139a8c96ef6bdae64107d4c9a085ee01fd715",
    ('newton', 4): "e31c33c8a5e3306ad185ce5e87703a50cfd09420b86cc4e2faa72ad071db5289",
    ('newton', 5): "27d074fd48edb73902c4e484b5754c4fe8c204757a33b17ce086b6b93a902983",
    ('newton', 6): "1d23fcc5af54e4b0f1097f17351a5d4f689b61047a5345e3b003cce42d3c40ab",
    ('newton', 10): "66d86e3d055b9f6a4f4ba60126a6c28c424af07a558c6be1aa1f4496831c1206",
}


@pytest.mark.parametrize("command,N", list(_DIGESTS), ids=lambda x: str(x))
def test_exact_outputs_are_byte_identical(tmp_path, command, N):
    jobs = _charpoly_jobs(N) if command == "charpoly" else _newton_jobs(N)
    assert _output_digest(tmp_path, jobs) == _DIGESTS[command, N]


_DENSE_JOBS = {
    ("spectrum", 11): [["spectrum", "--particles", "11", "--v", "1", "--c", "0.00909090909",
                        "--gamma", "0:1.5:500", "--format", fmt] for fmt in ("csv", "text")],
    ("spectrum", 40): [["spectrum", "-N", "40", "--c", "0.0025", "--gamma", "0:1.5:50",
                        "--format", fmt] for fmt in ("csv", "text")],
    ("trajectory", 5): [["trajectory", "--particles", "5", "--gamma", "1",
                         "--c", "0.0004:0.04:60:log", "--format", fmt]
                        for fmt in ("csv", "text", "json")],
    ("ep-map", 11): [["ep-map", "-N", "11", "--c", "0.004:7.3:24:log", "--format", fmt]
                     for fmt in ("csv", "json")],
    ("spectrum-json", 11): [["spectrum", "--particles", "11", "--v", "1", "--c", "0.00909090909",
                             "--gamma", "0:1.5:500", "--format", "json"]],
    ("spectrum-json", 40): [["spectrum", "-N", "40", "--c", "0.0025", "--gamma", "0:1.5:50",
                             "--format", "json"]],
}
# sha256 of each group's jobs, recorded before the tables were rendered from
# templates; the renderer must not change one output byte. The ep-map job,
# the README map, was recorded before the pair counter stopped sorting rows.
# Like the others it pins the bits of this machine's LAPACK. The spectrum
# JSON jobs were recorded before the dense commands wrote their output as
# it was rendered.
_DENSE_DIGESTS = {
    ("spectrum", 11): "33e91f42fe8a5a60a6875c726e82e973e7d5c58cb973124c23142618446ea4f6",
    ("spectrum", 40): "fb7949eab1c39f01203bae7f7c8f058e1c750df0da5e17aa2ae9c391163e1eb3",
    ("trajectory", 5): "2ecd5cae11814c5742067b132550280bce883800ecd614ac5cba1bbea6a8e418",
    ("ep-map", 11): "2973a8bef95e812d0a742fe595c372d96577102c865049a1e89d881abda2c7cb",
    ("spectrum-json", 11): "a8e72cc7a967ee15e05e4420d6758a24f715b15083e7b851ba689980d87f7983",
    ("spectrum-json", 40): "2087fb39ca0ec98473973f4c491aafa3d34fcb880f3a2d6742b605a62b2e2e5f",
}


@pytest.mark.parametrize("command,N", list(_DENSE_DIGESTS), ids=lambda x: str(x))
def test_dense_outputs_are_byte_identical(tmp_path, command, N):
    assert _output_digest(tmp_path, _DENSE_JOBS[command, N]) == _DENSE_DIGESTS[command, N]


@pytest.mark.parametrize("fmt", ["csv", "text", "json"])
@pytest.mark.parametrize("argv", [
    ["spectrum", "-N", "5", "--c", "0.3", "--gamma", "0:1.2:7"],
    ["trajectory", "-N", "5", "--gamma", "1", "--c", "0.0004:0.04:20:log"],
], ids=["spectrum", "trajectory"])
def test_output_file_has_the_bytes_of_stdout(tmp_path, capsys, argv, fmt):
    argv = argv + ["--format", fmt]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out"
    assert main(argv + ["-o", str(out)]) == 0
    assert capsys.readouterr().out == "" and len(printed) > 500
    assert out.read_bytes() == printed.encode()


# sha256 of the full acceptance report, recorded before classify stopped
# pairing eigenvalues and the exact route stopped computing its own scale.
# Like the dense digests it pins the bits of this machine's LAPACK.
_VERIFY_DIGEST = "16998bf48132d4dc4555f372226e1c36777ac7bfeb8f1df45f3822a5cdd2cd5a"


def test_verify_report_is_byte_identical(tmp_path):
    assert _output_digest(tmp_path, [["verify"]]) == _VERIFY_DIGEST
