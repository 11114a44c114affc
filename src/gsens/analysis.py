"""Model files, sweep requests, sensitivity sweeps and report emission.

The model file is JSON with variable names everywhere (indices never appear
in model files):

    {
      "variables": ["Y1", ...],
      "mean": [0, ...],                  # optional, defaults to zero
      "covariance": [[...], ...],        # optional when "dag" is present
      "ci": [{"A": [names], "B": [names], "C": [names]}, ...],   # optional
      "dag": {                           # optional
        "order": [names],
        "edges": [{"from": name, "to": name, "beta": real}, ...],
        "intercepts": {name: real},      # optional, default 0
        "cond_vars": {name: real}        # optional, default 1
      }
    }

When both "dag" and "covariance" are given they must agree to 1e-9
relative. Explicit "ci" wins over DAG-derived statements. Every number must
be finite.

A sweep request is the JSON object a sweep config file holds, and the one
the sweep/sweep2 flags build:

    {
      "model": "model.json",             # relative to the config file
      "positions": [[var, var]],         # one or two pairs
      "deltas": [0.9, 1.0] or {"min": 0.75, "max": 1.25, "step": 0.01},
      "deltas2": ...,                    # optional, defaults to "deltas"
      "schemes": ["standard", "total",   # optional, defaults to all five
                  {"kind": "row", "E": [var], "statement_index": 1}],
      "format": "csv",                   # optional, csv or json
      "output": "out.csv"                # optional, default stdout
    }

A variable (var) here is a name or a 1-based index. In a scheme object E
(kind "row") and F (kind "column") list variables, and statement_index
names one statement of the model, 1-based. Factors must be finite and
nonzero.

Sweeps evaluate, per grid factor and scheme, the perturbed covariance, its
admissibility (divergence.evaluate: a well-conditioned base and a positive
definite perturbed covariance; KL is reported only for admissible rows),
the Frobenius norm, and a re-checked preservation flag.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .cimodel import CIStatement, model_holds, require_model
from .covariation import Scheme, Variation, build_plan
from .divergence import additive_shift, evaluate
from .errors import FactorError, GsensError, ModelFormatError
from .graphmodels import GaussianDag, GraphModelError, dag_ci_statements, dag_to_gaussian
from .matcore import DEFAULT_TOL, TolerancePolicy

# Relative agreement required between a file's covariance and its DAG's.
DAG_COV_AGREE_TOL = 1e-9

CSV_COLUMNS = ("delta1", "delta2", "scheme", "kl", "frobenius", "admissible", "preserving")


@dataclass(frozen=True, eq=False)
class Model:
    """A loaded model: named variables, joint moments, CI statements and the
    optional DAG they came from."""

    names: tuple[str, ...]
    mean: np.ndarray
    covariance: np.ndarray
    statements: tuple[CIStatement, ...]
    dag: GaussianDag | None = None

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}; model has {', '.join(self.names)}") from None

    def resolve(self, variables) -> tuple[int, ...]:
        """0-based indices of variables given by name or by 1-based index (an
        integer or a digit string)."""
        out = []
        for v in variables:
            if isinstance(v, str):
                v = v.strip()
                if not v.lstrip("+-").isdigit():
                    out.append(self.index(v))
                    continue
                v = int(v)
            elif isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"expected a variable name or 1-based index, got {v!r}")
            if not 1 <= v <= self.n:
                raise IndexError(f"index {v} out of range 1..{self.n}")
            out.append(int(v) - 1)
        return tuple(out)

    def resolve_position(self, position) -> tuple[int, int]:
        """(i, j) from a 'name,name' / '2,1' string or a pair of variables."""
        parts = position.split(",") if isinstance(position, str) else list(position)
        if len(parts) != 2:
            raise ValueError(f"position needs exactly two components, got {position!r}")
        return self.resolve(parts)


def _req(obj: dict, key: str, where: str):
    if key not in obj:
        raise ModelFormatError(f"{where}: missing required field {key!r}")
    return obj[key]


def _reject_unknown(obj: dict, allowed: set[str], where: str):
    extra = set(obj) - allowed
    if extra:
        raise ModelFormatError(f"{where}: unknown field(s) {sorted(extra)}")


def _num(value, where: str) -> float:
    # NaN fails the comparison; so do infinities and integers beyond float range
    finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if isinstance(value, bool) or not finite:
        raise ModelFormatError(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _read_json(path: Path) -> dict:
    """The top-level object of a JSON file; a missing or unreadable file,
    malformed JSON or another top level is a ModelFormatError."""
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ModelFormatError(f"{path}: no such file") from None
    except OSError as e:
        raise ModelFormatError(f"{path}: cannot read ({e.strerror})") from None
    except json.JSONDecodeError as e:
        raise ModelFormatError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
    if not isinstance(raw, dict):
        raise ModelFormatError(f"{path}: top level must be an object")
    return raw


def _name_list(value, names: Sequence[str], where: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ModelFormatError(f"{where}: expected a list of variable names")
    out = []
    for k, v in enumerate(value):
        if not isinstance(v, str) or v not in names:
            raise ModelFormatError(f"{where}[{k}]: unknown variable {v!r}")
        out.append(names.index(v))
    return tuple(out)


def _parse_ci(raw, names: Sequence[str]) -> tuple[CIStatement, ...]:
    if not isinstance(raw, list):
        raise ModelFormatError('"ci" must be a list of statements')
    statements = []
    for k, item in enumerate(raw):
        where = f"ci[{k}]"
        if not isinstance(item, dict):
            raise ModelFormatError(f"{where}: expected an object with A/B/C lists")
        _reject_unknown(item, {"A", "B", "C"}, where)
        left = _name_list(_req(item, "A", where), names, f"{where}.A")
        right = _name_list(_req(item, "B", where), names, f"{where}.B")
        given = _name_list(item.get("C", []), names, f"{where}.C")
        try:
            statements.append(CIStatement(left=left, right=right, given=given))
        except ValueError as e:
            raise ModelFormatError(f"{where}: {e}") from None
    return tuple(statements)


def _parse_dag(raw, names: Sequence[str]) -> GaussianDag:
    if not isinstance(raw, dict):
        raise ModelFormatError('"dag" must be an object')
    _reject_unknown(raw, {"order", "edges", "intercepts", "cond_vars"}, "dag")
    n = len(names)
    order = _name_list(_req(raw, "order", "dag"), names, "dag.order")
    if sorted(order) != list(range(n)):
        raise ModelFormatError("dag.order must list every variable exactly once")
    edges = []
    raw_edges = _req(raw, "edges", "dag")
    if not isinstance(raw_edges, list):
        raise ModelFormatError("dag.edges must be a list")
    for k, e in enumerate(raw_edges):
        where = f"dag.edges[{k}]"
        if not isinstance(e, dict):
            raise ModelFormatError(f"{where}: expected an object")
        _reject_unknown(e, {"from", "to", "beta"}, where)
        (src,) = _name_list([_req(e, "from", where)], names, f"{where}.from")
        (dst,) = _name_list([_req(e, "to", where)], names, f"{where}.to")
        edges.append((src, dst, _num(_req(e, "beta", where), f"{where}.beta")))

    def per_vertex(key: str, default: float) -> tuple[float, ...]:
        table = raw.get(key, {})
        if not isinstance(table, dict):
            raise ModelFormatError(f"dag.{key} must map variable names to numbers")
        vals = [default] * n
        for name, v in table.items():
            if name not in names:
                raise ModelFormatError(f"dag.{key}: unknown variable {name!r}")
            vals[names.index(name)] = _num(v, f"dag.{key}[{name!r}]")
        return tuple(vals)

    try:
        return GaussianDag(
            n=n,
            edges=tuple(edges),
            order=order,
            intercepts=per_vertex("intercepts", 0.0),
            cond_vars=per_vertex("cond_vars", 1.0),
        )
    except GraphModelError as e:
        raise ModelFormatError(f"dag: {e}") from None


def load_model(path) -> Model:
    """Parse and validate a model file; see the module docstring for the
    schema. Asymmetric covariances and unknown variable names are rejected."""
    path = Path(path)
    raw = _read_json(path)
    _reject_unknown(raw, {"variables", "mean", "covariance", "ci", "dag"}, str(path))

    names_raw = _req(raw, "variables", str(path))
    if (
        not isinstance(names_raw, list)
        or not names_raw
        or not all(isinstance(v, str) and v for v in names_raw)
    ):
        raise ModelFormatError('"variables" must be a non-empty list of names')
    if len(set(names_raw)) != len(names_raw):
        raise ModelFormatError('"variables" contains duplicates')
    names = tuple(names_raw)
    n = len(names)

    cov = None
    if "covariance" in raw:
        rows = raw["covariance"]
        if not isinstance(rows, list) or len(rows) != n:
            raise ModelFormatError(f'"covariance" must be a {n}x{n} array')
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != n:
                raise ModelFormatError(f"covariance[{i}]: expected {n} entries")
            for j, v in enumerate(row):
                _num(v, f"covariance[{i}][{j}]")
        cov = np.array(rows, dtype=float)
        if not np.array_equal(cov, cov.T):
            i, j = np.argwhere(cov != cov.T)[0]
            raise ModelFormatError(
                f"covariance is asymmetric at ({names[i]},{names[j]}): "
                f"{cov[i, j]!r} vs {cov[j, i]!r}"
            )

    mean = None
    if "mean" in raw:
        mraw = raw["mean"]
        if not isinstance(mraw, list) or len(mraw) != n:
            raise ModelFormatError(f'"mean" must be a list of {n} numbers')
        mean = np.array([_num(v, f"mean[{k}]") for k, v in enumerate(mraw)], dtype=float)

    dag = _parse_dag(raw["dag"], names) if "dag" in raw else None
    if cov is None and dag is None:
        raise ModelFormatError('model needs "covariance", "dag", or both')

    if dag is not None:
        dag_mean, dag_cov = dag_to_gaussian(dag)
        if cov is not None:
            scale = max(1.0, float(np.abs(cov).max()))
            gap = float(np.abs(dag_cov - cov).max())
            if gap > DAG_COV_AGREE_TOL * scale:
                raise ModelFormatError(
                    f"covariance and dag disagree: max difference {gap:.3g} "
                    f"exceeds {DAG_COV_AGREE_TOL:g} relative"
                )
        else:
            cov = dag_cov
        if mean is not None:
            scale = max(1.0, float(np.abs(mean).max()))
            if float(np.abs(dag_mean - mean).max()) > DAG_COV_AGREE_TOL * scale:
                raise ModelFormatError("mean and dag intercepts disagree")
        else:
            mean = dag_mean
    if mean is None:
        mean = np.zeros(n)

    if "ci" in raw:
        statements = _parse_ci(raw["ci"], names)
    elif dag is not None:
        statements = dag_ci_statements(dag)
    else:
        statements = ()
    for k, s in enumerate(statements):
        if s.max_index >= n:
            raise ModelFormatError(f"ci[{k}]: index out of range")

    return Model(names=names, mean=mean, covariance=cov, statements=statements, dag=dag)


@dataclass(frozen=True)
class SweepRecord:
    """One grid point of a sweep. kl is present exactly when the row is
    admissible (perturbed covariance positive definite); frobenius is absent
    only when the scheme itself failed to construct."""

    delta1: float
    delta2: float | None
    scheme: str
    kl: float | None
    frobenius: float | None
    admissible: bool
    preserving: bool
    error: str | None = None


def resolve_scheme(model: Model, entry) -> Scheme | None:
    """A scheme entry of a sweep request, or of covary's flags, as a Scheme;
    None stands for "standard", the additive method.

    An entry is a Scheme, a kind name, or {"kind", "E", "F",
    "statement_index"}. E (kind "row") and F (kind "column") list variable
    names or 1-based indices; other kinds ignore them. statement_index is
    1-based.
    """
    if isinstance(entry, Scheme):
        return entry
    if isinstance(entry, str):
        entry = {"kind": entry}
    if not isinstance(entry, dict):
        raise ModelFormatError(f"cannot interpret scheme entry {entry!r}")
    _reject_unknown(entry, {"kind", "E", "F", "statement_index"}, "scheme")
    kind = entry.get("kind")
    if kind == "standard":
        return None
    key = "E" if kind == "row" else "F" if kind == "column" else None
    subset = entry.get(key) if key else None
    if subset is not None:
        if not isinstance(subset, list):
            raise ModelFormatError(f"scheme {key}: expected a list of variables")
        subset = model.resolve(subset)
    k = entry.get("statement_index")
    if k is not None and (isinstance(k, bool) or not isinstance(k, int) or k < 1):
        raise ModelFormatError(f"statement_index must be an integer >= 1, got {k!r}")
    return Scheme(kind, subset, None if k is None else k - 1)


def _as_grid(deltas) -> list[float]:
    grid = sorted(float(d) for d in deltas)
    if not grid:
        raise FactorError("empty factor grid")
    if 0.0 in grid:
        raise FactorError("factor grids exclude 0")
    for d in grid:
        if not math.isfinite(d):
            raise FactorError(f"factor grids must be finite, got {d}")
    return grid


def _row(
    model: Model,
    positions: tuple[tuple[int, int], ...],
    deltas: tuple[float, ...],
    scheme: Scheme | None,
    tol: TolerancePolicy,
) -> SweepRecord:
    """One grid point under one scheme; a scheme that fails to build gives
    an error record."""
    label = "standard" if scheme is None else scheme.kind
    d1, d2 = deltas if len(deltas) == 2 else (deltas[0], None)
    cov = model.covariance
    if scheme is None:
        change = additive_shift(cov, positions, deltas)
    else:
        factors = tuple((i, j, d) for (i, j), d in zip(positions, deltas))
        try:
            change = build_plan(Variation(model.n, factors), scheme, model.statements)
        except GsensError as e:
            return SweepRecord(d1, d2, label, None, None, False, False, str(e))
    target, report = evaluate(label, cov, change)
    preserving = model_holds(target, model.statements, tol).holds
    return SweepRecord(d1, d2, label, report.kl, report.frobenius, report.admissible, preserving)


def _sweep(model: Model, positions, grids, schemes, tol: TolerancePolicy) -> list[SweepRecord]:
    """Rows for every combination of grid factors (first grid outermost),
    schemes in declared order within each grid point."""
    require_model(model.covariance, model.statements, tol, model.names)
    for i, j in positions:
        if not (0 <= i < model.n and 0 <= j < model.n):
            raise IndexError(f"position ({i + 1},{j + 1}) out of range for dimension {model.n}")
    grids = [_as_grid(g) for g in grids]
    specs = [resolve_scheme(model, s) for s in schemes]
    return [
        _row(model, positions, deltas, scheme, tol)
        for deltas in itertools.product(*grids)
        for scheme in specs
    ]


def one_way_sweep(
    model: Model,
    position: tuple[int, int],
    deltas,
    schemes=("standard", "total", "partial", "row", "column"),
    tol: TolerancePolicy = DEFAULT_TOL,
) -> list[SweepRecord]:
    """Vary one covariance entry over a factor grid under each scheme.

    Rows are ordered by factor ascending, schemes in declared order. Scheme
    construction failures become per-row error records, never exceptions.
    """
    return _sweep(model, (position,), (deltas,), schemes, tol)


def two_way_sweep(
    model: Model,
    positions: tuple[tuple[int, int], tuple[int, int]],
    deltas1,
    deltas2=None,
    schemes=("standard", "total", "partial", "row", "column"),
    tol: TolerancePolicy = DEFAULT_TOL,
) -> list[SweepRecord]:
    """Vary two entries over a factor grid; model-preserving schemes perturb
    each position separately and compose the two plans."""
    (i1, j1), (i2, j2) = positions
    if sorted((i1, j1)) == sorted((i2, j2)):
        raise ValueError("two-way sweep needs two distinct positions")
    grid2 = deltas1 if deltas2 is None else deltas2
    return _sweep(model, positions, (deltas1, grid2), schemes, tol)


@dataclass(frozen=True)
class RegionSummary:
    """Admissible cell counts per scheme, with the widest admissible factor
    interval around 1 (one-way)."""

    two_way: bool
    intervals: dict[str, tuple[float, float] | None] = field(default_factory=dict)
    cell_counts: dict[str, tuple[int, int]] = field(default_factory=dict)


def admissible_region(records: Sequence[SweepRecord]) -> RegionSummary:
    """Extract per-scheme admissibility structure from sweep records."""
    two_way = any(r.delta2 is not None for r in records)
    schemes = []
    for r in records:
        if r.scheme not in schemes:
            schemes.append(r.scheme)
    intervals: dict[str, tuple[float, float] | None] = {}
    counts: dict[str, tuple[int, int]] = {}
    for s in schemes:
        rows = [r for r in records if r.scheme == s]
        counts[s] = (sum(r.admissible for r in rows), len(rows))
        if not two_way:
            rows = sorted(rows, key=lambda r: r.delta1)
            best = None
            run: list[SweepRecord] = []
            for r in rows + [None]:
                if r is not None and r.admissible:
                    run.append(r)
                    continue
                if run and run[0].delta1 <= 1.0 <= run[-1].delta1:
                    best = (run[0].delta1, run[-1].delta1)
                run = []
            intervals[s] = best
    return RegionSummary(two_way=two_way, intervals=intervals, cell_counts=counts)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit(records: Sequence[SweepRecord], fmt: str = "csv", path=None) -> str:
    """Serialize records as CSV (fixed columns) or JSON; returns the text and
    writes it to path when given (a GsensError when it cannot be written)."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow(
                [
                    _fmt(r.delta1),
                    _fmt(r.delta2),
                    r.scheme,
                    _fmt(r.kl),
                    _fmt(r.frobenius),
                    _fmt(r.admissible),
                    _fmt(r.preserving),
                ]
            )
        text = buf.getvalue()
    elif fmt == "json":
        text = (
            json.dumps(
                [
                    {
                        "delta1": r.delta1,
                        "delta2": r.delta2,
                        "scheme": r.scheme,
                        "kl": r.kl,
                        "frobenius": r.frobenius,
                        "admissible": r.admissible,
                        "preserving": r.preserving,
                        "error": r.error,
                    }
                    for r in records
                ],
                indent=2,
            )
            + "\n"
        )
    else:
        raise ValueError(f"unknown output format {fmt!r}; expected csv or json")
    if path is not None:
        try:
            Path(path).write_text(text)
        except OSError as e:
            raise GsensError(f"{path}: cannot write ({e.strerror})") from None
    return text


@dataclass(frozen=True)
class SweepConfig:
    """A validated sweep request, from a config file or the sweep flags."""

    model_path: Path
    positions: tuple[tuple[str | int, str | int], ...]
    deltas1: tuple[float, ...]
    deltas2: tuple[float, ...] | None
    schemes: tuple
    fmt: str
    output: str | None


def _parse_grid(raw, where: str) -> tuple[float, ...]:
    if isinstance(raw, list):
        return tuple(_num(v, f"{where}[{k}]") for k, v in enumerate(raw))
    if isinstance(raw, dict):
        _reject_unknown(raw, {"min", "max", "step"}, where)
        lo = _num(_req(raw, "min", where), f"{where}.min")
        hi = _num(_req(raw, "max", where), f"{where}.max")
        step = _num(_req(raw, "step", where), f"{where}.step")
        if step <= 0:
            raise ModelFormatError(f"{where}.step must be > 0")
        if hi < lo:
            raise ModelFormatError(f"{where}: max < min")
        span = (hi - lo) / step
        if not math.isfinite(span):
            raise ModelFormatError(f"{where}: too many factors from min to max by step")
        count = int(round(span)) + 1
        return tuple(round(lo + k * step, 12) for k in range(count) if lo + k * step <= hi + 1e-12)
    raise ModelFormatError(f"{where}: expected a list or a min/max/step object")


def sweep_config(raw: dict, where: str, base: Path) -> SweepConfig:
    """Validate a sweep request (see the module docstring); where names it in
    error messages and the model path is taken relative to base."""
    _reject_unknown(
        raw, {"model", "positions", "deltas", "deltas2", "schemes", "format", "output"}, where
    )
    model_rel = _req(raw, "model", where)
    if not isinstance(model_rel, str):
        raise ModelFormatError('"model" must be a path string')
    positions = _req(raw, "positions", where)
    if not isinstance(positions, list) or not 1 <= len(positions) <= 2:
        raise ModelFormatError('"positions" must be one or two [variable, variable] pairs')
    for k, p in enumerate(positions):
        if not isinstance(p, list) or len(p) != 2:
            raise ModelFormatError(
                f"positions[{k}]: expected a [variable, variable] pair, got {p!r}"
            )
    deltas1 = _parse_grid(_req(raw, "deltas", where), "deltas")
    deltas2 = _parse_grid(raw["deltas2"], "deltas2") if "deltas2" in raw else None
    schemes = raw.get("schemes", ["standard", "total", "partial", "row", "column"])
    if not isinstance(schemes, list):
        raise ModelFormatError('"schemes" must be a list')
    fmt = raw.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ModelFormatError(f'"format" must be csv or json, got {fmt!r}')
    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        raise ModelFormatError('"output" must be a path string')
    return SweepConfig(
        model_path=base / model_rel,
        positions=tuple(tuple(p) for p in positions),
        deltas1=deltas1,
        deltas2=deltas2,
        schemes=tuple(schemes),
        fmt=fmt,
        output=output,
    )


def load_sweep_config(path) -> SweepConfig:
    """Read a sweep config file; its model path is relative to the file's
    directory."""
    path = Path(path)
    return sweep_config(_read_json(path), str(path), path.parent.resolve())
