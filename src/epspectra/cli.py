"""Command-line front end.

Subcommands: spectrum, trajectory, charpoly, newton, ep-map, verify.
Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 acceptance
failure. Numeric output is rendered with 17 significant digits so identical
configurations produce byte-identical files; decimal parameters are parsed
as exact fractions (0.1 means 1/10, not the nearest double).
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass

import numpy as np

# ep_locator, newton_polygon and acceptance load inside the subcommands that
# use them, so that spectrum and trajectory do not pay for their import
from . import spectra
from ._roots import NumericalError
from .exact_poly import ParamPoly, charpoly_of_tridiagonal, rat, rat_str
from .operators import ModelParams, UsageError, build_generalized_hamiltonian

__all__ = ["main"]


# spectrum, trajectory and ep-map refuse (usage error, before allocating) an
# H of more than _MAX_MATRIX_ENTRIES entries, (N+1)^2 (N <= 2047: a 64 MiB
# complex matrix), and more than _MAX_GRID_VALUES eigenvalues, points x (N+1).
_MAX_MATRIX_ENTRIES = 1 << 22
_MAX_GRID_VALUES = 1 << 22
# charpoly and newton refuse (usage error, before building H) more than
# _MAX_EXACT_DIM rows, N + 1: the exact polynomial's cost grows steeply
# with N (charpoly with c symbolic, 2 cores, Python 3.11.7, Fraction
# backend: about 1.1 s and 82 MiB at N = 127, 7 s and 280 MiB at N = 200,
# 71 s and 708 MiB at N = 300).
_MAX_EXACT_DIM = 128


def _check_exact_dim(particles: int):
    if particles + 1 > _MAX_EXACT_DIM:
        raise UsageError(f"N={particles} gives N+1 = {particles + 1} rows, "
                         f"above the exact commands' limit of {_MAX_EXACT_DIM}")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # every option has one spelling: no prefixes
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # argparse exits 2 by default; the CLI uses 1
        raise UsageError(message)


@dataclass(frozen=True)
class RangeSpec:
    """Grid specification min:max:steps with an optional :log suffix."""

    lo: float
    hi: float
    steps: int
    spacing: str = "linear"

    def grid(self):
        if self.spacing == "log":
            return np.geomspace(self.lo, self.hi, self.steps)
        return np.linspace(self.lo, self.hi, self.steps)

    def checked_grid(self, particles: int):
        """The grid, once its size and that of H for N = ``particles`` are within the limits."""
        dim = particles + 1
        if dim * dim > _MAX_MATRIX_ENTRIES:
            raise UsageError(f"N={particles} gives (N+1)^2 = {dim * dim} matrix entries, "
                             f"above the limit of {_MAX_MATRIX_ENTRIES}")
        if self.steps * dim > _MAX_GRID_VALUES:
            raise UsageError(f"{self.steps} points x (N+1) = {self.steps * dim} eigenvalues, "
                             f"above the limit of {_MAX_GRID_VALUES}")
        return self.grid()

    def meta(self) -> dict:
        """The grid as the JSON metadata records it."""
        return {"min": self.lo, "max": self.hi, "steps": self.steps, "spacing": self.spacing}


def parse_range(text: str) -> RangeSpec:
    parts = text.split(":")
    spacing = "linear"
    if len(parts) == 4:
        if parts[3] != "log":
            raise UsageError(f"range suffix must be 'log', got {parts[3]!r}")
        spacing = "log"
        parts = parts[:3]
    if len(parts) != 3:
        raise UsageError(f"range must be min:max:steps[:log], got {text!r}")
    try:
        steps = int(parts[2])
    except ValueError as exc:
        raise UsageError(str(exc))
    lo, hi = _float(parts[0]), _float(parts[1])
    if steps < 1:
        raise UsageError("steps must be >= 1")
    if steps > 1 and not lo < hi:
        raise UsageError("range needs min < max")
    if steps == 1 and lo != hi:
        raise UsageError("a one-point range needs min == max")
    if spacing == "log" and lo <= 0:
        raise UsageError("log range needs min > 0")
    return RangeSpec(lo=lo, hi=hi, steps=steps, spacing=spacing)


def _exact(text: str):
    try:
        return rat(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not an exact number: {text!r} ({exc})")


def _float(text: str) -> float:
    """The float nearest an exact-number argument; usage error if it overflows."""
    value = _exact(text)
    if abs(value) > sys.float_info.max:
        raise UsageError(f"{text!r} is too large for a float")
    return float(value)


def _write(path, pieces):
    """Write each string of ``pieces`` as it comes, to ``path`` or, for '-', stdout."""
    if path in (None, "-"):
        sys.stdout.writelines(pieces)
        return
    try:
        with open(path, "w") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc.strerror}")


# -- JSON rendering with 17-significant-digit numbers -------------------------


def _json_value(v):
    if isinstance(v, str):
        return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _fmt(v)
    if isinstance(v, dict):
        inner = ", ".join(f'"{k}": {_json_value(x)}' for k, x in v.items())
        return "{" + inner + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_value(x) for x in v) + "]"
    raise TypeError(f"cannot render {type(v)} as JSON")


def _json_doc(obj) -> str:
    return _json_value(obj) + "\n"


def _json_rows(meta: dict, key: str, rows):
    """The pieces of ``_json_doc({"metadata": meta, key: [...]})``, each row rendered already."""
    yield f'{{"metadata": {_json_value(meta)}, "{key}": ['
    for i, row in enumerate(rows):
        yield ", " + row if i else row
    yield "]}\n"


# -- subcommands ---------------------------------------------------------------


def _table(param_header, grid, rows, fmt):
    """Point-major ``param,branch,re,im`` lines, comma-separated for csv, else spaces.

    ``rows`` is the complex (points, branches) array. Yields the header
    line, then one string per grid point: its lines, from one template
    filled first with the point's value and then with the re, im of every
    branch in turn, by C-level ``%.17g``, the same bytes as ``_fmt``.
    """
    sep = "," if fmt == "csv" else " "
    template = "".join(sep.join(("%(x)s", str(b), "%%.17g", "%%.17g\n"))
                       for b in range(rows.shape[1]))
    yield sep.join((param_header, "branch", "re", "im\n"))
    for x, row in zip(grid, rows):
        yield template % {"x": _fmt(x)} % tuple(row.view(float).tolist())


def _branch_table(trajectories):
    """Branch-major ``c branch re im`` lines: the header, then one string per branch."""
    yield "c branch re im\n"
    for t in trajectories:
        line = f"%.17g {t.branch} %.17g %.17g\n"
        yield "".join(line % (p, z.real, z.imag)
                      for p, z in zip(t.parameters.tolist(), t.values.tolist()))


def cmd_spectrum(args) -> int:
    rng = parse_range(args.gamma)
    v, c = _float(args.v), _float(args.c)
    params = ModelParams(particles=args.particles, gamma=0.0, v=v, c=c,
                         pert_power=args.pert_power)
    grid = rng.checked_grid(args.particles)
    rows = spectra.sweep(params, "gamma", grid)
    if args.format == "json":
        point = ('{"param": %.17g, "eigenvalues": ['
                 + ", ".join(['{"re": %.17g, "im": %.17g}'] * rows.shape[1]) + "]}")
        meta = {"N": args.particles, "v": v, "c": c, "vary": "gamma", "grid": rng.meta()}
        pieces = _json_rows(meta, "spectra", (point % (x, *row.view(float).tolist())
                                              for x, row in zip(grid.tolist(), rows)))
    else:
        pieces = _table("param", grid, rows, args.format)
    _write(args.output, pieces)
    return 0


def cmd_trajectory(args) -> int:
    rng = parse_range(args.c)
    v, gamma = _float(args.v), _float(args.gamma)
    params = ModelParams(particles=args.particles, gamma=gamma, v=v, c=0.0,
                         pert_power=args.pert_power)
    trajectories, unresolved = spectra.matched_sweep(params, "c", rng.checked_grid(args.particles))
    if args.format == "csv":
        rows = np.column_stack([t.values for t in trajectories])
        pieces = _table("c", trajectories[0].parameters, rows, "csv")
    elif args.format == "json":
        meta = {"N": args.particles, "v": v, "gamma": gamma, "grid": rng.meta(),
                "unresolved_steps": [list(u) for u in unresolved]}
        point = '{"c": %.17g, "re": %.17g, "im": %.17g}'
        pieces = _json_rows(meta, "trajectories", (
            f'{{"branch": {t.branch}, "points": ['
            + ", ".join(point % (p, z.real, z.imag)
                        for p, z in zip(t.parameters.tolist(), t.values.tolist())) + "]}"
            for t in trajectories))
    else:
        pieces = _branch_table(trajectories)
    _write(args.output, pieces)
    if unresolved:
        sys.stderr.write(f"note: {len(unresolved)} step(s) unresolved at refinement floor\n")
    return 0


def cmd_charpoly(args) -> int:
    _check_exact_dim(args.particles)
    gamma = _exact(args.gamma)
    v = _exact(args.v)
    c = _exact(args.c) if args.c is not None else ParamPoly.monomial(1, 1)  # c formal
    params = ModelParams(
        particles=args.particles, gamma=gamma, v=v, c=c, pert_power=args.pert_power
    )
    # tridiagonal in the monomial basis for every perturbation power
    cp = charpoly_of_tridiagonal(build_generalized_hamiltonian(params, "monomial"))
    lines = [
        f"# characteristic polynomial, N={args.particles}, gamma={rat_str(gamma)}, "
        f"v={rat_str(v)}, " + ("c symbolic" if isinstance(c, ParamPoly) else f"c={rat_str(c)}"),
        "# paper normalization: chi(lambda) = -sum_k p[M-k] lambda^k, p[0] = -1",
        *cp.render_paper(),
        "# monic normalization: det(lambda I - H), coefficient of each lambda power",
        *cp.render_monic(),
    ]
    _write(args.output, (line + "\n" for line in lines))
    return 0


def cmd_newton(args) -> int:
    from . import newton_polygon

    _check_exact_dim(args.particles)
    k = args.pert_power
    cp = newton_polygon.unfolding_charpoly(args.particles, k, _exact(args.v))
    analysis = newton_polygon.analyze_unfolding(cp)
    pred = newton_polygon.predict_ring_counts(args.particles, k)
    observed = analysis.ring_size_counts()
    if args.format == "json":
        doc = {
            "N": args.particles,
            "pert_power": k,
            "parameter": cp.param,
            "points": [[p.k, p.a] for p in analysis.points],
            "segments": [
                {
                    "mu": str(seg.mu),
                    "points": [[p.k, p.a] for p in seg.points],
                    "reduced_polynomial": red.render("e"),
                    "leading_coefficients": [
                        {"re": float(b.e1.real), "im": float(b.e1.imag)}
                        for b in analysis.branches
                        if b.mu == float(seg.mu)
                    ],
                }
                for seg, red in zip(analysis.segments, analysis.reduced)
            ],
            "rings": [
                {
                    "ring_id": b.ring_id,
                    "size": b.ring_size,
                    "mu": b.mu,
                    "modulus": float(abs(b.e1)),
                    "irregular": b.irregular,
                }
                for b in analysis.branches
            ],
            "zero_branches": analysis.zero_branch_count,
            "predicted": {
                "ring_count": pred.ring_count,
                "ring_size": pred.ring_size,
                "remainder": pred.remainder,
            },
            "observed_ring_sizes": {str(s): n for s, n in sorted(observed.items())},
        }
        _write(args.output, [_json_doc(doc)])
        return 0
    lines = [f"# Newton-Puiseux unfolding, N={args.particles}, perturbation power k={k} "
             f"(parameter {cp.param})"]
    lines.append("points (lambda-degree, lowest parameter exponent):")
    lines.append("  " + " ".join(f"({p.k},{p.a})" for p in analysis.points))
    for seg, red in zip(analysis.segments, analysis.reduced):
        lines.append(f"segment mu = {seg.mu}:")
        lines.append("  on-segment points: " + " ".join(f"({p.k},{p.a})" for p in seg.points))
        lines.append(f"  reduced polynomial in e: {red.render('e')}")
        for b in analysis.branches:
            if b.mu == float(seg.mu):
                tag = " (irregular)" if b.irregular else ""
                lines.append(
                    f"  e1 = {_fmt(b.e1.real)} + {_fmt(b.e1.imag)}i"
                    f"  ring {b.ring_id} size {b.ring_size}{tag}"
                )
    if analysis.zero_branch_count:
        lines.append(f"identically-zero branches: {analysis.zero_branch_count}")
    lines.append(
        f"ring law: predicted {pred.ring_count} ring(s) of size {pred.ring_size}"
        f" + remainder {pred.remainder};"
        f" observed sizes {dict(sorted(observed.items()))}"
    )
    _write(args.output, (line + "\n" for line in lines))
    return 0


def cmd_ep_map(args) -> int:
    from . import ep_locator

    rng = parse_range(args.c)
    v = _float(args.v)
    gamma_range = None if args.gamma_max is None else (0.0, _float(args.gamma_max))
    emap = ep_locator.ep_map(args.particles, v, rng.checked_grid(args.particles),
                             gamma_range=gamma_range, tol=args.tol)
    if args.format == "json":
        doc = {
            "metadata": {
                "N": args.particles,
                "v": v,
                "tol": args.tol,
                "grid": rng.meta(),
            },
            "map": [
                {
                    "c": c,
                    "eps": [
                        {
                            "index": i,
                            "gamma_tilde": r.gamma,
                            "order": r.order,
                            "method": r.method,
                        }
                        for i, r in enumerate(recs)
                    ],
                }
                for c, recs in zip(emap.c_values, emap.records)
            ],
        }
        _write(args.output, [_json_doc(doc)])
        return 0
    lines = ["c,index,gamma_tilde,order,method"]
    for c, recs in zip(emap.c_values, emap.records):
        for i, r in enumerate(recs):
            lines.append(f"{_fmt(c)},{i},{_fmt(r.gamma)},{r.order},{r.method}")
    _write(args.output, (line + "\n" for line in lines))
    return 0


def cmd_verify(args) -> int:
    from . import acceptance

    keys = args.only.split(",") if args.only else None
    tol_scale = 0.0 if args.zero_tolerance else 1.0
    buf = []
    ok = acceptance.main_report(keys=keys, tol_scale=tol_scale, write=buf.append)
    _write(args.output, (line + "\n" for line in buf))
    return 0 if ok else 3


@functools.cache  # one parser per process: building it costs more than a parse
def _build_parser() -> _Parser:
    parser = _Parser(prog="epspectra", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, pert_power=True, formats=("csv", "json", "text")):
        # only the options the subcommand reads; the first format is the default
        p.add_argument("--particles", "-N", type=int, required=True, help="particle number N")
        p.add_argument("--v", default="1", help="tunneling strength (exact decimal)")
        if pert_power:
            p.add_argument("--pert-power", type=int, default=2, help="power k of the L_z^k term")
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--output", "-o", default="-", help="output path, '-' for stdout")

    p = sub.add_parser("spectrum", help="eigenvalues over a gamma sweep")
    common(p)
    p.add_argument("--c", default="0", help="interaction strength (exact decimal)")
    p.add_argument("--gamma", required=True, help="gamma range min:max:steps[:log]")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("trajectory", help="branch-matched eigenvalue trajectories over c")
    common(p)
    p.add_argument("--gamma", required=True, help="fixed gamma (exact decimal)")
    p.add_argument("--c", required=True, help="c range min:max:steps[:log]")
    p.set_defaults(func=cmd_trajectory)

    p = sub.add_parser("charpoly", help="exact characteristic polynomial")
    common(p, formats=())
    p.add_argument("--gamma", required=True, help="gamma (exact decimal)")
    p.add_argument("--c", default=None, help="fixed c (exact decimal); omit to keep c symbolic")
    p.set_defaults(func=cmd_charpoly)

    p = sub.add_parser("newton", help="Newton-Puiseux unfolding at gamma = v")
    common(p, formats=("text", "json"))
    p.set_defaults(func=cmd_newton)

    p = sub.add_parser("ep-map", help="second-order EP positions over a c grid")
    common(p, pert_power=False, formats=("csv", "json"))
    p.add_argument("--c", required=True, help="c range min:max:steps[:log]")
    p.add_argument("--gamma-max", default=None, help="upper end of the gamma search range")
    p.add_argument("--tol", type=float, default=1e-9, help="bisection bracket width")
    p.set_defaults(func=cmd_ep_map)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--only", default=None, help="comma-separated criterion keys")
    p.add_argument("--zero-tolerance", action="store_true",
                   help="harness self-test: zero out tolerances, expect failure")
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
