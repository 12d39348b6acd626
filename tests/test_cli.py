"""CLI subcommands: formats, exit codes, determinism."""

import json

import numpy as np
import pytest

from epspectra.cli import main, parse_range
from epspectra.operators import UsageError


def run_cli(tmp_path, *args, name="out.txt"):
    out = tmp_path / name
    code = main(list(args) + ["--output", str(out)])
    return code, out.read_text() if out.exists() else ""


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
        for bad in ("1:0:5", "0:1:0", "0:1", "a:b:3", "0:1:5:cubic", "-1:1:3:log"):
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
            tmp_path, "newton", "--particles", "5", "--pert", "delta"
        )
        assert code == 0
        assert "parameter Delta" in text
        assert "segment mu = 1/2" in text


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

    def test_usage_error_missing_args(self):
        assert main(["spectrum"]) == 1

    def test_usage_error_zero_particles(self):
        assert main(["spectrum", "--particles", "0", "--gamma", "0:1:3"]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

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

    @pytest.mark.parametrize("v", ["1e200", "1e400", "1e-400"])
    def test_exact_v_beyond_the_float_range(self, v, capsys):
        # the leading coefficients scale like a power of v and overflow or
        # underflow as floats; 1e-400 is no float, but it is not 0 either
        assert main(["newton", "-N", "3", "--v", v]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("numerical failure:")

    @pytest.mark.parametrize("v", ["1e400", "1e-400"])
    def test_charpoly_of_any_nonzero_exact_v(self, v, capsys):
        assert main(["charpoly", "-N", "3", "--gamma", "1", "--v", v]) == 0
        captured = capsys.readouterr()
        exact = str(10**400) if v == "1e400" else f"1/{10**400}"
        assert f"v={exact}, c symbolic" in captured.out and captured.err == ""
        assert "\nlambda^4: 1\n" in captured.out

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

    def test_verify_zero_tolerance_fails_loudly(self, tmp_path):
        code, text = run_cli(
            tmp_path, "verify", "--only", "c0-spectrum", "--zero-tolerance", name="z.txt"
        )
        assert code == 3
        assert "FAIL" in text
