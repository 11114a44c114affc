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

Sweeps report, per grid point and scheme, the Frobenius norm of the change,
its admissibility (a well-conditioned base, a finite change and a positive
definite perturbed covariance; KL is reported only for admissible rows) and
whether the perturbed covariance still satisfies every statement. Every
grid point ends as a row: a scheme that fails to build there, or a plan
product that underflows to zero, gives an error row with the message, and
a change that is not finite an inadmissible row. A sweep returns its rows
as one SweepTable of columns, and emit's reports leave delta2 empty in a
one-way sweep, KL on an inadmissible row and Frobenius on an error row.

A plan is its mask: where(M, delta, 1) for a mask M that delta does not
touch, and a grid point's plan is the Schur product of its positions'
plans (compose). So a sweep makes one Variation per position and axis
factor, which every scheme shares, and builds each scheme's plan once per
position and axis factor (build_plan, whose warnings and construction
errors each grid point then meets in row order; it resolves the
delta-free fill once per position, scheme and statements, memoised, and
each plan carries that mask); any plan built gives the mask. Every
scheme's masks are stacked (schemes, positions, n, n), and the whole
table, grid point g under scheme s at row g * schemes + s, is evaluated in
one pass over stacked arrays, in blocks of at most BLOCK_ENTRIES matrix
entries whose rows mix schemes: per block one product, targets P o Sigma
and changes (P - 1) o Sigma (Sigma + D for the standard scheme's rows),
and Frobenius, KL and admissibility from one divergence.measure, with
Sigma factored once per sweep. A scheme whose masks are equal at every
position (every scheme of a one-way sweep, the standard change included,
and total always) changes Sigma by (f - 1) (M o Sigma) on each row, f the
product of the row's factors: its base M o Sigma gets one spectrum per
sweep (divergence.spectra), and its rows' KL and admissibility come from
f - 1 times it, as divergence.kl_stack bounds. The other rows share one
batched eigvalsh per block. emit formats each distinct factor, flag,
scheme label and error once per column.

Preservation is decided for every statement and scheme at once. One
float64 matmul with the block-row and block-column indicators of the
model's statement table (cimodel.statement_table) finds which statements'
blocks each scheme's masks touch. An untouched block is bitwise the base's,
which holds (require_model). Every touched (row, statement) pair of a block
goes to steps 1-3 of cimodel, one decide_pairs call per group of
statements that share |C|, smallest first, each on the rows that still
hold; only a row they leave undecided goes to model_holds on its target (a
NaN mirrored by a NaN counts as symmetric there, so a block that holds a
NaN fails). Every verdict is therefore the minor definition's, decided as
covary decides it. Warnings, construction errors and the row order are
those of building every row's plan in turn; numpy's floating-point warnings
are off while a sweep evaluates, as in the CLI, so the warnings a sweep
issues are build_plan's own.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .cimodel import CIStatement, decide_pairs, model_holds, require_model, statement_table
from .covariation import Scheme, Variation, build_plan, check_product
from .divergence import additive_shift, measure, spectra, whitener
from .errors import FactorError, GsensError, ModelFormatError
from .graphmodels import GaussianDag, GraphModelError, dag_ci_statements, dag_to_gaussian
from .matcore import DEFAULT_TOL, TolerancePolicy

# Relative agreement required between a file's covariance and its DAG's.
DAG_COV_AGREE_TOL = 1e-9

# A sweep stacks at most this many matrix entries (grid points x n x n) per
# array (64 KiB), however large the model.
BLOCK_ENTRIES = 1 << 13

# A factor grid, and a sweep's grid of points, holds at most this many.
MAX_GRID_POINTS = 10**6

CSV_COLUMNS = ("delta1", "delta2", "scheme", "kl", "frobenius", "admissible", "preserving")
# json.dumps's tokens where repr of None, a flag or a float is not JSON
_JSON_TOKENS = {"None": "null", "True": "true", "False": "false", "nan": "NaN", "inf": "Infinity",
                "-inf": "-Infinity"}
# a flag as CSV and JSON write it
_FLAGS = {True: "true", False: "false"}


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
    text that is not UTF-8, malformed JSON or another top level is a
    ModelFormatError."""
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ModelFormatError(f"{path}: no such file") from None
    except OSError as e:
        raise ModelFormatError(f"{path}: cannot read ({e.strerror})") from None
    except UnicodeDecodeError as e:
        raise ModelFormatError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    except json.JSONDecodeError as e:
        raise ModelFormatError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
    if not isinstance(raw, dict):
        raise ModelFormatError(f"{path}: top level must be an object")
    return raw


def _name_list(value, names: dict[str, int], where: str) -> tuple[int, ...]:
    """The indices, by the name -> index map names, of a list of names."""
    if not isinstance(value, list):
        raise ModelFormatError(f"{where}: expected a list of variable names")
    out = []
    for k, v in enumerate(value):
        if not isinstance(v, str) or v not in names:
            raise ModelFormatError(f"{where}[{k}]: unknown variable {v!r}")
        out.append(names[v])
    return tuple(out)


def _parse_ci(raw, names: dict[str, int]) -> tuple[CIStatement, ...]:
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


def _parse_dag(raw, names: dict[str, int]) -> GaussianDag:
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
            vals[names[name]] = _num(v, f"dag.{key}[{name!r}]")
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
                f"{float(cov[i, j])!r} vs {float(cov[j, i])!r}"
            )

    mean = None
    if "mean" in raw:
        mraw = raw["mean"]
        if not isinstance(mraw, list) or len(mraw) != n:
            raise ModelFormatError(f'"mean" must be a list of {n} numbers')
        mean = np.array([_num(v, f"mean[{k}]") for k, v in enumerate(mraw)], dtype=float)

    index = {name: k for k, name in enumerate(names)}
    dag = _parse_dag(raw["dag"], index) if "dag" in raw else None
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
        statements = _parse_ci(raw["ci"], index)
    elif dag is not None:
        statements = dag_ci_statements(dag)
    else:
        statements = ()
    for k, s in enumerate(statements):
        if s.max_index >= n:
            raise ModelFormatError(f"ci[{k}]: index out of range")

    return Model(names=names, mean=mean, covariance=cov, statements=statements, dag=dag)


@dataclass(frozen=True, eq=False)
class SweepTable:
    """A sweep's rows as columns: grid points in order (first grid
    outermost), each with its schemes in declared order. factors holds a
    row's factor at each varied position, shape (rows, positions); scheme
    its scheme label. kl is NaN where the row is not admissible (perturbed
    covariance not positive definite); an error row, whose error is the
    message (None elsewhere), is inadmissible and has a NaN frobenius."""

    factors: np.ndarray
    scheme: tuple[str, ...]
    kl: np.ndarray
    frobenius: np.ndarray
    admissible: np.ndarray
    preserving: np.ndarray
    error: tuple[str | None, ...]

    def __len__(self) -> int:
        return len(self.scheme)


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


def _axis(model: Model, variations, spec: Scheme):
    """Build the plan of every factor of one grid axis at one position (its
    Variations, one per factor): the mask the plans share, from any plan
    built (none when no plan builds), and each factor's warnings and
    construction error (None when the plan builds)."""
    mask = None
    notes, errors = [], []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for variation in variations:
            try:
                mask = build_plan(variation, spec, model.statements).masks[0]
                errors.append(None)
            except GsensError as e:
                errors.append(str(e))
            notes.append(tuple(str(w.message) for w in caught) if caught else ())
            caught.clear()
    return np.zeros((model.n, model.n), dtype=bool) if mask is None else mask, notes, errors


def _outcomes(axes, index: np.ndarray):
    """Each grid point's construction error (None when its plan builds) and
    the (grid index, warnings) of the points that warn, in grid order. A
    point's plan is built position by position, so it meets each axis's
    warnings in turn, up to the first error."""
    errors: list[str | None] = [None] * index.shape[1]
    marked = np.zeros(index.shape[1], dtype=bool)
    for (_, found, failed), at in zip(axes, index):
        marked |= np.array([bool(f) or e is not None for f, e in zip(found, failed)])[at]
    notes = []
    for g in np.flatnonzero(marked).tolist():
        seen: tuple[str, ...] = ()
        for (_, found, failed), v in zip(axes, index[:, g].tolist()):
            seen += found[v]
            if failed[v] is not None:
                errors[g] = failed[v]
                break
        if seen:
            notes.append((g, seen))
    return errors, notes


def _masks(model: Model, positions, variations, index, spec):
    """One scheme's single-position masks (positions, n, n), each grid
    point's construction error and the (grid index, warnings) of the points
    that warn, from each axis's shared Variations. The standard change
    varies the position entries alone and always builds."""
    if spec is None:
        masks = np.zeros((len(positions), model.n, model.n), dtype=bool)
        for mask, (i, j) in zip(masks, positions):
            mask[i, j] = mask[j, i] = True
        return masks, [None] * index.shape[1], []
    axes = [_axis(model, axis, spec) for axis in variations]
    return np.stack([mask for mask, _, _ in axes]), *_outcomes(axes, index)


def _checks(model: Model, masks: np.ndarray):
    """The statements some mask touches, as positions in the model's
    statements, ks, and which schemes (slots of masks, (schemes, positions,
    n, n)) touch each one's block, (schemes, len(ks)). One float64 matmul
    counts each scheme's mask entries per row in every statement's block
    columns (exact, and it takes BLAS)."""
    table, n = statement_table(model.statements, model.n), model.n
    across = masks.any(axis=1).reshape(-1, n).astype(float) @ table.cols_of.T
    touched = (across.reshape(len(masks), n, -1) * table.rows_of.T).any(axis=1)
    ks = np.flatnonzero(touched.any(axis=0))
    return ks, touched[:, ks]


def _replay(notes: list[list]) -> None:
    """Issue each scheme's warnings once, in the row order of the sweep."""
    width = len(notes)
    shown: set[str] = set()
    for _, found in sorted((g * width + s, found) for s, col in enumerate(notes) for g, found in col):
        for note in found:
            if note not in shown:
                shown.add(note)
                warnings.warn(note, stacklevel=4)


def _sweep(model: Model, positions, grids, schemes, tol: TolerancePolicy) -> SweepTable:
    """Rows for every combination of grid factors (first grid outermost),
    schemes in declared order within each grid point: row g * len(schemes)
    + s."""
    require_model(model.covariance, model.statements, tol, model.names)
    for i, j in positions:
        if not (0 <= i < model.n and 0 <= j < model.n):
            raise IndexError(f"position ({i + 1},{j + 1}) out of range for dimension {model.n}")
    grids = [_as_grid(g) for g in grids]
    points = math.prod(map(len, grids))
    if points > MAX_GRID_POINTS:
        raise FactorError(f"{points} grid points exceed {MAX_GRID_POINTS}")
    specs = [resolve_scheme(model, s) for s in schemes]
    if not specs:
        raise ValueError("a sweep needs at least one scheme")
    index = np.indices([len(g) for g in grids]).reshape(len(grids), -1)
    grid = np.stack([np.asarray(g)[at] for g, at in zip(grids, index)], axis=1)
    n, cov, width = model.n, model.covariance, len(specs)
    whiten = whitener(cov)
    # one Variation per position and axis factor, shared by every plan scheme
    variations = [[Variation(n, i, j, d) for d in g] for (i, j), g in zip(positions, grids)]
    count = len(grid) * width
    errors: list[str | None] = [None] * count
    masks, notes = [], []
    kls, frob = np.full(count, np.nan), np.full(count, np.nan)
    admissible, preserving = np.zeros(count, dtype=bool), np.zeros(count, dtype=bool)
    step = max(1, BLOCK_ENTRIES // (n * n))
    with np.errstate(all="ignore"):
        for s, spec in enumerate(specs):
            mask, errors[s::width], found = _masks(model, positions, variations, index, spec)
            masks.append(mask)
            notes.append(found)
        masks = np.stack(masks)
        # a scheme whose masks agree at every position changes Sigma by
        # (f - 1) (M o Sigma), f the product of a row's factors: one base,
        # and one spectrum, per such scheme
        single = (masks == masks[:, :1]).all(axis=(1, 2, 3))
        base = np.where(single, np.cumsum(single) - 1, -1)
        spectral = whiten is not None and single.any()
        if spectral:
            lam, reach = spectra(whiten, np.where(masks[single, 0], cov, 0.0))
        standard = np.array([spec is None for spec in specs])
        live = np.array([r for r, e in enumerate(errors) if e is None], dtype=int)
        ks, touched = _checks(model, masks)
        table = statement_table(model.statements, n)
        # the touched statements of each |C| group, as columns of ks
        grouped = [np.flatnonzero(table.group[ks] == g) for g in range(len(table.groups))]
        for start in range(0, live.size, step):
            at = live[start : start + step]
            point, slot = np.divmod(at, width)
            factors = grid[point]
            product = np.where(masks[slot, 0], factors[:, 0, None, None], 1.0)
            for p in range(1, len(positions)):
                product = product * np.where(masks[slot, p], factors[:, p, None, None], 1.0)
            targets = product * cov
            shifts = (product - 1.0) * cov
            # the standard change is additive, Sigma + D
            additive = standard[slot]
            if additive.any():
                shifts[additive] = additive_shift(cov, positions, factors[additive].T)
                targets[additive] = cov + shifts[additive]
            # a product that underflows to zero is an error row, as in build_plan
            built = additive | ~(product == 0).any(axis=(1, 2))
            for b in np.flatnonzero(~built):
                try:
                    check_product(product[b])
                except FactorError as e:
                    errors[at[b]] = str(e)
            scaled = None
            if spectral:
                # f on each row's mask, as the product loop above rounds it
                scale = factors[:, 0]
                for p in range(1, len(positions)):
                    scale = scale * factors[:, p]
                on = base[slot]
                scaled = lam[on], reach[on], np.where(on >= 0, scale - 1.0, np.nan)
            sizes, values, ok = measure(cov, whiten, targets, shifts, scaled)
            frob[at] = np.where(built, sizes, np.nan)
            kls[at] = np.where(built, values, np.nan)
            admissible[at] = ok & built

            # every touched (row, statement) pair, one call per group of
            # statements that share |C|, smallest first, each on the rows
            # that hold so far
            holds, open_ = built.copy(), touched[slot]
            unsure = np.zeros_like(open_)
            for members in grouped:
                row, col = np.nonzero(holds[:, None] & open_[:, members])
                if not row.size:
                    continue
                verdict, decided = decide_pairs(targets, table, row, ks[members[col]], tol)
                holds[row[decided & ~verdict]] = False
                unsure[row[~decided], members[col[~decided]]] = True
            for b in np.flatnonzero(holds & unsure.any(axis=1)).tolist():
                stmts = [model.statements[k] for k in ks[unsure[b]].tolist()]
                holds[b] = model_holds(targets[b], stmts, tol).holds
            preserving[at] = holds
    _replay(notes)
    labels = ["standard" if spec is None else spec.kind for spec in specs]
    return SweepTable(
        factors=np.repeat(grid, width, axis=0), scheme=tuple(labels * len(grid)), kl=kls, frobenius=frob,
        admissible=admissible, preserving=preserving, error=tuple(errors),
    )


def one_way_sweep(
    model: Model,
    position: tuple[int, int],
    deltas,
    schemes=("standard", "total", "partial", "row", "column"),
    tol: TolerancePolicy = DEFAULT_TOL,
) -> SweepTable:
    """Vary one covariance entry over a factor grid under each scheme.

    Rows are ordered by factor ascending, schemes in declared order. Every
    grid point ends as a row, never as an exception: a scheme that fails to
    build there gives an error row.
    """
    return _sweep(model, (position,), (deltas,), schemes, tol)


def two_way_sweep(
    model: Model,
    positions: tuple[tuple[int, int], tuple[int, int]],
    deltas1,
    deltas2=None,
    schemes=("standard", "total", "partial", "row", "column"),
    tol: TolerancePolicy = DEFAULT_TOL,
) -> SweepTable:
    """Vary two entries over a factor grid; model-preserving schemes perturb
    each position separately and compose the two plans. Rows are as in
    one_way_sweep, and a grid point whose composed product underflows to
    zero is an error row too."""
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


def admissible_region(table: SweepTable) -> RegionSummary:
    """Per-scheme admissible cell counts of a sweep and, one-way, the run of
    admissible factors (in factor order) that contains 1."""
    two_way = table.factors.shape[1] == 2
    labels = np.array(table.scheme)
    intervals: dict[str, tuple[float, float] | None] = {}
    counts: dict[str, tuple[int, int]] = {}
    for s in dict.fromkeys(table.scheme):
        mask = labels == s
        admissible = table.admissible[mask]
        counts[s] = (int(admissible.sum()), int(mask.sum()))
        if not two_way:
            factors = table.factors[mask, 0]
            order = np.argsort(factors, kind="stable")
            factors, admissible = factors[order], admissible[order]
            # each run of admissible rows starts at an even edge and stops before the next
            edges = np.flatnonzero(np.diff(np.concatenate(([False], admissible, [False]))))
            first, last = factors[edges[0::2]], factors[edges[1::2] - 1]
            around = np.flatnonzero((first <= 1.0) & (1.0 <= last))
            intervals[s] = (float(first[around[-1]]), float(last[around[-1]])) if around.size else None
    return RegionSummary(two_way=two_way, intervals=intervals, cell_counts=counts)


def _columns(table: SweepTable) -> dict[str, list]:
    """The report's columns by name, in output order, None in an empty
    cell."""
    factors = table.factors.T.tolist()
    admissible = table.admissible.tolist()
    return {
        "delta1": factors[0],
        "delta2": factors[1] if len(factors) == 2 else [None] * len(table),
        "scheme": list(table.scheme),
        "kl": [v if a else None for v, a in zip(table.kl.tolist(), admissible)],
        "frobenius": [None if e is not None else v for v, e in zip(table.frobenius.tolist(), table.error)],
        "admissible": admissible,
        "preserving": table.preserving.tolist(),
        "error": list(table.error),
    }


def _memo(cells: list, form) -> list:
    """form of every cell, called once per distinct value (cell by cell in a
    column with a zero: 0.0 and -0.0 are equal keys that print apart)."""
    if 0.0 in cells:
        return [form(v) for v in cells]
    memo = {v: form(v) for v in set(cells)}
    return [memo[v] for v in cells]


def emit(table: SweepTable, fmt: str = "csv", path=None) -> str:
    """Serialize a sweep as CSV (CSV_COLUMNS, floats by repr, flags as
    true/false, empty cells empty) or as JSON (one object per row, null in
    an empty cell, with the error message); returns the text and writes it
    to path when given (a GsensError when it cannot be written)."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown output format {fmt!r}; expected csv or json")
    columns = _columns(table)
    # factors, flags, labels and errors repeat from row to row: each distinct
    # value is formatted once
    for name in ("admissible", "preserving"):
        columns[name] = [_FLAGS[v] for v in columns[name]]
    if fmt == "csv":
        for name in ("delta1", "delta2"):
            columns[name] = _memo(columns[name], lambda v: "" if v is None else repr(v))
        for name in ("kl", "frobenius"):
            columns[name] = ["" if v is None else repr(v) for v in columns[name]]
        lines = map(",".join, zip(*(columns[name] for name in CSV_COLUMNS)))
        text = "\n".join([",".join(CSV_COLUMNS), *lines]) + "\n"
    else:
        # json.dumps(rows, indent=2) byte for byte, written from the columns
        for name in ("delta1", "delta2"):
            columns[name] = _memo(columns[name], lambda v: _JSON_TOKENS.get(repr(v), repr(v)))
        for name in ("kl", "frobenius"):
            columns[name] = [_JSON_TOKENS.get(t, t) for t in map(repr, columns[name])]
        for name in ("scheme", "error"):
            columns[name] = _memo(columns[name], lambda v: "null" if v is None else encode_basestring_ascii(v))
        template = "  {\n" + ",\n".join(f"    {encode_basestring_ascii(name)}: %s" for name in columns) + "\n  }"
        rows = ",\n".join(template % cells for cells in zip(*columns.values()))
        text = "[\n" + rows + "\n]\n" if len(table) else "[]\n"
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
        if count > MAX_GRID_POINTS:
            raise ModelFormatError(f"{where}: {count} factors from min to max by step exceed {MAX_GRID_POINTS}")
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
