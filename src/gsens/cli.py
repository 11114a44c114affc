"""Command-line interface.

Subcommands: check, build-cov, covary, sweep, sweep2, condition, compare.
Exit codes: 0 success, 1 validation failure, 2 a single-point query is
numerically inadmissible.

main may be called repeatedly in one process. The argparse tree is built
once, on the first call, and reused: parsing does not change it, usage
errors go to sys.stderr as it is at the time of the call, and --help reads
the terminal width when it prints.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .analysis import (
    Model,
    admissible_region,
    emit,
    load_model,
    load_sweep_config,
    one_way_sweep,
    resolve_scheme,
    sweep_config,
    two_way_sweep,
)
from .cimodel import model_holds, require_model
from .conditioning import Evidence, condition
from .covariation import Variation, build_plan, verify_preserving
from .divergence import COMPARE_SCHEMES, measure, scheme_ordering, whitener
from .errors import GsensError, SingularMatrixError
from .matcore import DEFAULT_TOL, TolerancePolicy

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INADMISSIBLE = 2


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INVALID


def _print_matrix(m: np.ndarray, names) -> None:
    width = max(len(n) for n in names)
    cells = [[f"{v:.12g}" for v in row] for row in m]
    col = max(width, max(len(c) for row in cells for c in row))
    print(" " * (width + 2) + "  ".join(n.rjust(col) for n in names))
    for name, row in zip(names, cells):
        print(name.ljust(width + 2) + "  ".join(c.rjust(col) for c in row))


def _names(text: str | None) -> list[str] | None:
    """A comma-separated --E/--F value as a scheme entry's list."""
    return text.split(",") if text else None


def _plan_json(model: Model, plan) -> str:
    """A one-position plan's position, factor and scheme as built."""
    ((variation, scheme),) = plan.steps
    scheme_obj: dict = {"kind": scheme.kind}
    if scheme.kind == "row" and scheme.subset is not None:
        scheme_obj["E"] = [model.names[k] for k in scheme.subset]
    if scheme.kind == "column" and scheme.subset is not None:
        scheme_obj["F"] = [model.names[k] for k in scheme.subset]
    if scheme.statement_index is not None:
        scheme_obj["statement_index"] = scheme.statement_index + 1
    position = {"i": model.names[variation.i], "j": model.names[variation.j], "delta": variation.delta}
    return json.dumps({"positions": [position], "scheme": scheme_obj})


def _cmd_check(args) -> int:
    model = load_model(args.model)
    if not model.statements:
        print("no conditional-independence statements to check")
        return EXIT_OK
    verdicts = model_holds(model.covariance, model.statements, args.tol)
    for stmt, res in zip(model.statements, verdicts.checks):
        label = stmt.describe(model.names)
        if res.holds:
            print(f"ok    {label}")
        else:
            print(f"FAIL  {label}  witness {res.witness.describe(model.names)}")
    return EXIT_OK if verdicts.holds else EXIT_INVALID


def _cmd_build_cov(args) -> int:
    model = load_model(args.model)
    if model.dag is None:
        return _fail("model file has no dag section")
    print("covariance:")
    _print_matrix(model.covariance, model.names)
    if np.any(model.mean != 0):
        print("mean:")
        for name, v in zip(model.names, model.mean):
            print(f"  {name}  {v:.12g}")
    return EXIT_OK


def _cmd_covary(args) -> int:
    model = load_model(args.model)
    i, j = model.resolve_position(args.pos)
    entry = {"kind": args.scheme, "E": _names(args.E), "F": _names(args.F)}
    scheme = resolve_scheme(model, {**entry, "statement_index": args.statement})
    plan = build_plan(Variation(model.n, i, j, args.delta), scheme, model.statements)
    print(f"plan: {_plan_json(model, plan)}")
    failure = verify_preserving(plan, model.covariance, model.statements, args.tol, model.names).first_failure
    if failure is None:
        print("verdict: preserving")
    else:
        print(f"verdict: NOT preserving  witness {failure[1].describe(model.names)}")
    cov = model.covariance
    target, shift = plan.apply(cov), (plan.product - 1.0) * cov
    (frob,), (kl,), (admissible,) = measure(cov, whitener(cov), target[None], shift[None])
    print(f"admissible: {'yes' if admissible else 'no'}")
    print(f"frobenius: {frob:.12g}")
    if admissible:
        print(f"kl: {kl:.12g}")
    else:
        print("kl: unavailable (perturbed covariance not admissible)")
    return EXIT_OK if admissible else EXIT_INADMISSIBLE


# Sweep flags that describe what a --config file describes; they default to
# None so that giving one next to --config can be detected.
_REQUEST_FLAGS = (
    "pos", "pos2", "deltas", "deltas2", "delta_min", "delta_max", "delta_step",
    "delta_min2", "delta_max2", "delta_step2", "schemes", "E", "F",
)


def _sweep_request(args, positions: list[str]) -> dict:
    """The sweep config object that the sweep/sweep2 flags describe."""

    def grid(deltas, lo, hi, step):
        if deltas:
            return [float(x) for x in deltas.split(",")]
        return {"min": lo, "max": hi, "step": step}

    lo = 0.75 if args.delta_min is None else args.delta_min
    hi = 1.25 if args.delta_max is None else args.delta_max
    step = 0.01 if args.delta_step is None else args.delta_step
    kinds = "standard,total,partial,row,column" if args.schemes is None else args.schemes
    request = {
        "model": args.model,
        "positions": [p.split(",") for p in positions],
        "deltas": grid(args.deltas, lo, hi, step),
        "schemes": [
            {"kind": kind.strip(), "E": _names(args.E), "F": _names(args.F)}
            for kind in kinds.split(",")
        ],
        "format": args.format or "csv",
        "output": args.output,
    }
    if len(positions) == 2 and (
        args.deltas2 or (args.delta_min2, args.delta_max2, args.delta_step2) != (None, None, None)
    ):
        request["deltas2"] = grid(
            args.deltas2,
            lo if args.delta_min2 is None else args.delta_min2,
            hi if args.delta_max2 is None else args.delta_max2,
            step if args.delta_step2 is None else args.delta_step2,
        )
    return request


def _emit_table(table, fmt: str, output, summary: bool) -> None:
    text = emit(table, fmt, output)
    if output is None:
        sys.stdout.write(text)
    if summary:
        region = admissible_region(table)
        for scheme, (adm, total) in region.cell_counts.items():
            if region.two_way:
                print(f"summary {scheme}: {adm}/{total} admissible cells", file=sys.stderr)
            else:
                iv = region.intervals.get(scheme)
                iv_text = f"[{iv[0]:g}, {iv[1]:g}]" if iv else "none"
                print(
                    f"summary {scheme}: {adm}/{total} admissible, interval around 1: {iv_text}",
                    file=sys.stderr,
                )


def _cmd_sweep(args) -> int:
    count = 2 if args.command == "sweep2" else 1
    if args.config:
        given = ["model"] if args.model else []
        given += ["--" + f.replace("_", "-") for f in _REQUEST_FLAGS if getattr(args, f, None) is not None]
        if given:
            return _fail(f"--config cannot be combined with {', '.join(given)}")
        cfg = load_sweep_config(args.config)
    else:
        positions = [p for p in (args.pos, getattr(args, "pos2", None)) if p]
        if not args.model or len(positions) != count:
            needs = "a model and --pos" if count == 1 else "a model, --pos and --pos2"
            return _fail(f"{args.command} needs {needs} (or --config)")
        cfg = sweep_config(_sweep_request(args, positions), args.command, Path())
    if len(cfg.positions) != count:
        return _fail(f"{args.command} config needs exactly {count} position{'s' * (count - 1)}")
    model = load_model(cfg.model_path)
    positions = tuple(model.resolve_position(p) for p in cfg.positions)
    if count == 1:
        table = one_way_sweep(model, positions[0], cfg.deltas1, cfg.schemes, args.tol)
    else:
        table = two_way_sweep(model, positions, cfg.deltas1, cfg.deltas2, cfg.schemes, args.tol)
    # --format and -o override a config file's choice
    _emit_table(table, args.format or cfg.fmt, args.output or cfg.output, args.summary)
    return EXIT_OK


def _cmd_condition(args) -> int:
    model = load_model(args.model)
    pairs = []
    for item in args.evidence.split(","):
        if "=" not in item:
            return _fail(f"evidence item {item!r} is not name=value")
        name, _, value = item.partition("=")
        pairs.append((model.index(name.strip()), float(value)))
    ev = Evidence.from_pairs(pairs)
    try:
        mean_c, cov_c = condition(model.mean, model.covariance, ev)
    except SingularMatrixError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    out_names = [model.names[k] for k in range(model.n) if k not in set(ev.indices)]
    print("conditional mean:")
    for name, v in zip(out_names, mean_c):
        print(f"  {name}  {v:.12g}")
    print("conditional covariance:")
    _print_matrix(cov_c, out_names)
    return EXIT_OK


def _cmd_compare(args) -> int:
    model = load_model(args.model)
    i, j = model.resolve_position(args.pos)
    if len(model.statements) != 1:
        return _fail("compare needs a model with exactly one CI statement")
    require_model(model.covariance, model.statements, DEFAULT_TOL, model.names)
    columns = scheme_ordering(model.covariance, (i, j), args.delta, model.statements[0])
    print(f"{'scheme':<10} {'frobenius':>16} {'kl':>16} {'admissible':>11}")
    for scheme, frob, kl, admissible in zip(COMPARE_SCHEMES, *columns):
        kl_text = f"{kl:.10g}" if admissible else "-"
        print(f"{scheme:<10} {frob:>16.10g} {kl_text:>16} {'yes' if admissible else 'no':>11}")
    return EXIT_OK


def _tolerance(text: str) -> TolerancePolicy:
    try:
        return TolerancePolicy(float(text))
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _add_tol(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--tol", type=_tolerance, default=DEFAULT_TOL, help="scale-relative minor-vanishing tolerance (default 1e-9)"
    )


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, which would collide with the
    # "numerically inadmissible" exit code; usage errors are validation
    # failures here.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gsens",
        description="Sensitivity analysis for Gaussian conditional-independence models "
        "with structure-preserving multiplicative perturbations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify the model's CI statements against its covariance")
    p.add_argument("model")
    _add_tol(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("build-cov", help="build the joint covariance from the dag section")
    p.add_argument("model")
    p.set_defaults(func=_cmd_build_cov)

    p = sub.add_parser("covary", help="build one perturbation plan and report its effect")
    p.add_argument("model")
    p.add_argument("--pos", required=True, help="varied position: 'name,name' or 1-based 'i,j'")
    p.add_argument("--delta", type=float, required=True, help="multiplicative factor")
    p.add_argument(
        "--scheme",
        default="partial",
        choices=["total", "partial", "row", "column", "none"],
    )
    p.add_argument("--E", help="row set for --scheme row (names or 1-based indices)")
    p.add_argument("--F", help="column set for --scheme column")
    p.add_argument("--statement", type=int, help="target statement (1-based)")
    _add_tol(p)
    p.set_defaults(func=_cmd_covary)

    for name, two in (("sweep", False), ("sweep2", True)):
        p = sub.add_parser(name, help=f"{'two-way' if two else 'one-way'} sensitivity sweep")
        p.add_argument("model", nargs="?")
        p.add_argument("--config", help="sweep config file (alternative to flags)")
        p.add_argument("--pos", help="varied position")
        p.add_argument("--deltas", help="explicit comma-separated factors")
        p.add_argument("--delta-min", type=float, help="grid start (default 0.75)")
        p.add_argument("--delta-max", type=float, help="grid end (default 1.25)")
        p.add_argument("--delta-step", type=float, help="grid step (default 0.01)")
        if two:
            p.add_argument("--pos2", help="second varied position")
            p.add_argument("--deltas2")
            p.add_argument("--delta-min2", type=float)
            p.add_argument("--delta-max2", type=float)
            p.add_argument("--delta-step2", type=float)
        p.add_argument(
            "--schemes", help="comma-separated scheme list (default standard,total,partial,row,column)"
        )
        p.add_argument("--E", help="row set for row schemes")
        p.add_argument("--F", help="column set for column schemes")
        p.add_argument("--format", choices=["csv", "json"], default=None)
        p.add_argument("-o", "--output", help="output file (default stdout)")
        p.add_argument("--summary", action="store_true", help="print admissibility summary to stderr")
        _add_tol(p)
        p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("condition", help="condition the model on observed values")
    p.add_argument("model")
    p.add_argument("--evidence", required=True, help="comma-separated name=value pairs")
    p.set_defaults(func=_cmd_condition)

    p = sub.add_parser("compare", help="Frobenius/KL table across schemes at one factor")
    p.add_argument("model")
    p.add_argument("--pos", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    shown: set[str] = set()

    def show(message, category, filename, lineno, file=None, line=None):
        # "warning: <message>", once per distinct message and command, with
        # no source location: the text must not move with the code
        text = str(message)
        if text not in shown:
            shown.add(text)
            print(f"warning: {text}", file=sys.stderr)

    # extreme factors overflow to inf by design; numpy's RuntimeWarnings
    # about it would only clutter stderr
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("always")
        warnings.showwarning = show
        try:
            return args.func(args)
        except (GsensError, ValueError, KeyError, IndexError) as e:
            # str() of a KeyError is the repr of its message
            return _fail(e.args[0] if isinstance(e, KeyError) else str(e))


if __name__ == "__main__":
    sys.exit(main())
