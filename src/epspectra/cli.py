"""Command-line front end.

Subcommands: spectrum, trajectory, charpoly, newton, ep-map, verify.
Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 acceptance
failure. Numeric output is rendered with 17 significant digits so identical
configurations produce byte-identical files; decimal parameters are parsed
as exact fractions (0.1 means 1/10, not the nearest double).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from . import acceptance, ep_locator, newton_polygon, spectra
from ._roots import RootFindingError
from .exact_poly import charpoly_of_tridiagonal, rat
from .operators import ModelParams, UsageError, build_generalized_hamiltonian

__all__ = ["main"]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


class _Parser(argparse.ArgumentParser):
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
        if self.steps == 1:
            return np.array([self.lo])
        if self.spacing == "log":
            return np.geomspace(self.lo, self.hi, self.steps)
        return np.linspace(self.lo, self.hi, self.steps)


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


def _write(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


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


# -- subcommands ---------------------------------------------------------------


def cmd_spectrum(args) -> int:
    rng = parse_range(args.gamma)
    v, c = _float(args.v), _float(args.c)
    params = ModelParams(particles=args.particles, gamma=0.0, v=v, c=c,
                         pert_power=args.pert_power)
    result = spectra.sweep(params, "gamma", rng.grid())
    meta = {
        "N": args.particles,
        "v": v,
        "c": c,
        "vary": "gamma",
        "grid": {"min": rng.lo, "max": rng.hi, "steps": rng.steps, "spacing": rng.spacing},
    }
    _emit_sweep(result, "gamma", meta, args.format, args.output, "param")
    return 0


def cmd_trajectory(args) -> int:
    rng = parse_range(args.c)
    v, gamma = _float(args.v), _float(args.gamma)
    params = ModelParams(particles=args.particles, gamma=gamma, v=v, c=0.0,
                         pert_power=args.pert_power)
    grid = rng.grid()
    if len(grid) == 1:
        result = spectra.sweep(params, "c", grid)
        meta = {
            "N": args.particles,
            "v": v,
            "gamma": gamma,
            "vary": "c",
            "grid": {"min": rng.lo, "max": rng.hi, "steps": rng.steps, "spacing": rng.spacing},
        }
        _emit_sweep(result, "c", meta, args.format, args.output, "c")
        return 0
    trajectories, unresolved = spectra.matched_sweep(params, "c", grid)
    lines = []
    if args.format == "csv":
        lines.append("c,branch,re,im")
        npoints = len(trajectories[0].parameters)
        for i in range(npoints):
            for t in trajectories:
                lines.append(
                    f"{_fmt(t.parameters[i])},{t.branch},{_fmt(t.values[i].real)},{_fmt(t.values[i].imag)}"
                )
        text = "\n".join(lines) + "\n"
    elif args.format == "json":
        doc = {
            "metadata": {
                "N": args.particles,
                "v": v,
                "gamma": gamma,
                "grid": {"min": rng.lo, "max": rng.hi, "steps": rng.steps, "spacing": rng.spacing},
                "unresolved_steps": [list(u) for u in unresolved],
            },
            "trajectories": [
                {
                    "branch": t.branch,
                    "points": [
                        {"c": float(p), "re": float(z.real), "im": float(z.imag)}
                        for p, z in zip(t.parameters, t.values)
                    ],
                }
                for t in trajectories
            ],
        }
        text = _json_doc(doc)
    else:
        lines.append("c branch re im")
        for t in trajectories:
            for p, z in zip(t.parameters, t.values):
                lines.append(f"{_fmt(p)} {t.branch} {_fmt(z.real)} {_fmt(z.imag)}")
        text = "\n".join(lines) + "\n"
    _write(args.output, text)
    if unresolved:
        sys.stderr.write(f"note: {len(unresolved)} step(s) unresolved at refinement floor\n")
    return 0


def _emit_sweep(result, vary, meta, fmt, output, param_header):
    if fmt == "json":
        doc = {
            "metadata": meta,
            "spectra": [
                {
                    "param": float(getattr(spec.params, vary)),
                    "eigenvalues": [
                        {"re": float(z.real), "im": float(z.imag)} for z in spec.eigenvalues
                    ],
                }
                for spec in result
            ],
        }
        text = _json_doc(doc)
    else:
        sep = "," if fmt == "csv" else " "
        lines = [sep.join((param_header, "branch", "re", "im"))]
        for spec in result:
            p = _fmt(getattr(spec.params, vary))
            for b, z in enumerate(spec.eigenvalues):
                lines.append(sep.join((p, str(b), _fmt(z.real), _fmt(z.imag))))
        text = "\n".join(lines) + "\n"
    _write(output, text)


def cmd_charpoly(args) -> int:
    gamma = _exact(args.gamma)
    v = _exact(args.v)
    c = None if args.c is None else _exact(args.c)
    params = ModelParams(
        particles=args.particles, gamma=gamma, v=v, c=c, pert_power=args.pert_power
    )
    # tridiagonal in the monomial basis for every perturbation power
    cp = charpoly_of_tridiagonal(build_generalized_hamiltonian(params, "monomial"))
    lines = [
        f"# characteristic polynomial, N={args.particles}, gamma={gamma}, v={v}, "
        + ("c symbolic" if c is None else f"c={c}"),
        "# paper normalization: chi(lambda) = -sum_k p[M-k] lambda^k, p[0] = -1",
        *cp.render_paper(),
        "# monic normalization: det(lambda I - H), coefficient of each lambda power",
        *cp.render_monic(),
    ]
    _write(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_newton(args) -> int:
    k = 1 if args.pert == "delta" else args.pert_power
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
        _write(args.output, _json_doc(doc))
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
    _write(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_ep_map(args) -> int:
    rng = parse_range(args.c)
    v = _float(args.v)
    gamma_range = None if args.gamma_max is None else (0.0, _float(args.gamma_max))
    emap = ep_locator.ep_map(args.particles, v, rng.grid(), gamma_range=gamma_range, tol=args.tol)
    if args.format == "json":
        doc = {
            "metadata": {
                "N": args.particles,
                "v": v,
                "tol": args.tol,
                "grid": {"min": rng.lo, "max": rng.hi, "steps": rng.steps, "spacing": rng.spacing},
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
        _write(args.output, _json_doc(doc))
        return 0
    lines = ["c,index,gamma_tilde,order,method"]
    for c, recs in zip(emap.c_values, emap.records):
        for i, r in enumerate(recs):
            lines.append(f"{_fmt(c)},{i},{_fmt(r.gamma)},{r.order},{r.method}")
    _write(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_verify(args) -> int:
    keys = args.only.split(",") if args.only else None
    tol_scale = 0.0 if args.zero_tolerance else 1.0
    buf = []
    ok = acceptance.main_report(keys=keys, tol_scale=tol_scale, write=buf.append)
    _write(args.output, "\n".join(buf) + "\n")
    return 0 if ok else 3


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
    p.add_argument("--pert", choices=("c", "delta"), default="c",
                   help="perturbation parameter: c at gamma=v, or delta at c=0")
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
    except (spectra.SpectralError, ep_locator.EPLocationError, RootFindingError,
            spectra.ClassificationError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
