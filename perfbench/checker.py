"""Correctness checks on the outputs of benchmark jobs (standard library only).

``check_job`` returns a list of problems; an empty list means the output
passed. Every problem counts as a failed job. The checks are the paper's
guarantees and the CLI's documented contract:

* a sweep has grid size x schemes rows;
* ``kl`` is present exactly when ``admissible`` is true, and ``kl >= 0``;
* ``kl = 0`` and ``frobenius = 0`` where every factor is 1;
* the Frobenius ordering total >= partial >= row and column >= standard,
  on one-way rows and on two-way rows where one factor is 1 (elsewhere the
  two factors can cancel under total and partial, so no ordering holds);
* every built model-preserving row is ``preserving``;
* ``check`` on a generated model prints only ``ok`` lines and exits 0;
* the exit code of ``covary`` matches its ``admissible:`` line;
* on bundled fixtures, the output minus its KL values matches the reference
  byte for byte, and the KL values match within KL_REL_TOL.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json

from workloads import SCHEMES, Job

# KL values on fixtures may move in their last digits when the divergence
# formula is reorganised (for example a spectral form instead of trace and
# log-determinants); flags, factors and Frobenius norms may not.
KL_REL_TOL = 1e-6
KL_ABS_TOL = 1e-12

FROBENIUS_SLACK = 1e-12
MODEL_PRESERVING = ("total", "partial", "row", "column")
ORDERING = (
    ("total", "partial"),
    ("partial", "row"),
    ("partial", "column"),
    ("row", "standard"),
    ("column", "standard"),
)


def parse_sweep(text: str, fmt: str) -> list[dict]:
    """Sweep records as dicts with floats, bools and None for empty cells."""
    if fmt == "json":
        return json.loads(text)
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    out = []
    for row in body:
        rec = dict(zip(header, row))
        for key in ("delta1", "delta2", "kl", "frobenius"):
            rec[key] = float(rec[key]) if rec[key] != "" else None
        for key in ("admissible", "preserving"):
            rec[key] = {"true": True, "false": False}[rec[key]]
        out.append(rec)
    return out


def _built(rec: dict) -> bool:
    # frobenius is empty exactly when the scheme failed to build
    return rec["frobenius"] is not None


def _check_sweep(job: Job, code: int, text: str) -> tuple[list[str], int]:
    if code != 0:
        return [f"exit code {code}, expected 0"], 0
    records = parse_sweep(text, job.fmt)
    problems = []
    expected = len(SCHEMES)
    for size in job.grid:
        expected *= size
    if len(records) != expected:
        problems.append(f"{len(records)} rows, expected {expected}")
    cells: dict[tuple, dict[str, dict]] = {}
    for k, rec in enumerate(records):
        where = f"row {k + 1} ({rec['scheme']} at {rec['delta1']},{rec['delta2']})"
        if (rec["kl"] is not None) != rec["admissible"]:
            problems.append(f"{where}: kl present={rec['kl'] is not None} but admissible={rec['admissible']}")
        if rec["kl"] is not None and rec["kl"] < 0:
            problems.append(f"{where}: negative kl {rec['kl']!r}")
        if rec["delta1"] == 1.0 and rec["delta2"] in (None, 1.0):
            if rec["kl"] != 0.0 or rec["frobenius"] != 0.0:
                problems.append(f"{where}: kl={rec['kl']!r} frobenius={rec['frobenius']!r} at factor 1")
        if rec["scheme"] in MODEL_PRESERVING and _built(rec) and not rec["preserving"]:
            problems.append(f"{where}: built model-preserving plan is not preserving")
        cells.setdefault((rec["delta1"], rec["delta2"]), {})[rec["scheme"]] = rec
    for (d1, d2), by_scheme in cells.items():
        if d2 is not None and d1 != 1.0 and d2 != 1.0:
            continue
        frob = {s: r["frobenius"] for s, r in by_scheme.items() if _built(r)}
        slack = FROBENIUS_SLACK * max(1.0, frob.get("total", 0.0))
        for hi, lo in ORDERING:
            if hi in frob and lo in frob and frob[hi] < frob[lo] - slack:
                problems.append(f"frobenius {hi} < {lo} at {d1},{d2}: {frob[hi]!r} < {frob[lo]!r}")
    return problems, len(records)


def _check_check(job: Job, code: int, text: str) -> list[str]:
    if job.fixture:
        return []  # fixture verdicts are covered by the reference
    problems = [] if code == 0 else [f"exit code {code}, expected 0"]
    bad = [line for line in text.splitlines() if not line.startswith("ok    ")]
    if bad or not text:
        problems.append(f"non-ok lines from check on a generated model: {bad[:3]}")
    return problems


def _check_covary(job: Job, code: int, text: str) -> list[str]:
    fields = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
    admissible = fields.get("admissible")
    if admissible not in ("yes", "no"):
        return [f"no admissible line (exit code {code})"]
    problems = []
    want = 0 if admissible == "yes" else 2
    if code != want:
        problems.append(f"exit code {code} but admissible: {admissible}")
    if fields.get("verdict") != "preserving":
        problems.append(f"verdict {fields.get('verdict')!r} for a model-preserving scheme")
    kl = fields.get("kl", "")
    if admissible == "yes":
        try:
            if float(kl) < 0:
                problems.append(f"negative kl {kl}")
        except ValueError:
            problems.append(f"admissible but kl is {kl!r}")
    return problems


def _check_compare(job: Job, code: int, text: str) -> tuple[list[str], int]:
    if code != 0:
        return [f"exit code {code}, expected 0"], 0
    rows = [line.split() for line in text.splitlines()[1:]]
    if [r[0] for r in rows] != ["total", "partial", "row", "column", "standard"]:
        return [f"unexpected compare rows {[r[:1] for r in rows]}"], len(rows)
    problems = []
    frob = {}
    for scheme, f, kl, adm in rows:
        frob[scheme] = float(f)
        if (kl != "-") != (adm == "yes"):
            problems.append(f"{scheme}: kl {kl} with admissible {adm}")
        if kl != "-" and float(kl) < 0:
            problems.append(f"{scheme}: negative kl {kl}")
    # the table prints 10 significant digits
    slack = 1e-9 * max(1.0, frob["total"])
    for hi, lo in ORDERING:
        if frob[hi] < frob[lo] - slack:
            problems.append(f"frobenius {hi} < {lo}: {frob[hi]!r} < {frob[lo]!r}")
    return problems, len(rows)


def _check_condition(job: Job, code: int, text: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}, expected 0"]
    lines = text.splitlines()
    left = job.n - job.evidence
    # "conditional mean:", one line per variable, "conditional covariance:",
    # a header and one matrix row per variable
    if len(lines) != 2 * left + 3 or lines[0] != "conditional mean:":
        return [f"{len(lines)} output lines, expected {2 * left + 3}"]
    return []


def split_kl(job: Job, text: str) -> tuple[str, list]:
    """(output with its KL values cut out, the KL values in order)."""
    kls: list = []
    if job.command in ("sweep", "sweep2") and job.fmt == "csv":
        lines = []
        for row in csv.reader(io.StringIO(text)):
            kls.append(row[3])
            lines.append(",".join(row[:3] + row[4:]))
        kls = [None if v == "" else float(v) for v in kls[1:]]
        return "\n".join(lines) + "\n", kls
    lines = []
    for line in text.splitlines():
        stripped = line.strip()
        if job.command in ("sweep", "sweep2") and stripped.startswith('"kl": '):
            value = stripped[len('"kl": '):].rstrip(",")
            kls.append(None if value == "null" else float(value))
            line = '"kl"'
        elif job.command == "covary" and line.startswith("kl: "):
            value = line[len("kl: "):]
            kls.append(float(value) if not value.startswith("unavailable") else None)
            line = "kl"
        elif job.command == "compare" and stripped.split(" ", 1)[0] in SCHEMES:
            cells = stripped.split()
            kls.append(None if cells[2] == "-" else float(cells[2]))
            line = " ".join(cells[:2] + cells[3:])
        lines.append(line)
    return "\n".join(lines) + "\n", kls


def reference_entry(job: Job, code: int, text: str) -> dict:
    rest, kls = split_kl(job, text)
    return {"exit": code, "sha256": hashlib.sha256(rest.encode()).hexdigest(), "kl": kls}


def _check_reference(job: Job, code: int, text: str, reference: dict) -> list[str]:
    ref = reference.get(job.key)
    if ref is None:
        return [f"no reference output for fixture job {job.key!r}"]
    got = reference_entry(job, code, text)
    problems = []
    if got["exit"] != ref["exit"]:
        problems.append(f"exit code {got['exit']}, reference {ref['exit']}")
    if got["sha256"] != ref["sha256"]:
        problems.append("output other than kl differs from the reference")
    if len(got["kl"]) != len(ref["kl"]):
        problems.append(f"{len(got['kl'])} kl values, reference has {len(ref['kl'])}")
        return problems
    for k, (a, b) in enumerate(zip(got["kl"], ref["kl"])):
        if (a is None) != (b is None) or (
            a is not None and abs(a - b) > KL_REL_TOL * abs(b) + KL_ABS_TOL
        ):
            problems.append(f"kl #{k + 1} is {a!r}, reference {b!r}")
            break
    return problems


def check_job(job: Job, code: int, text: str, reference: dict) -> tuple[list[str], int]:
    """(problems found, result rows emitted) for one job's exit code and stdout."""
    rows = 0
    try:
        if job.command in ("sweep", "sweep2"):
            problems, rows = _check_sweep(job, code, text)
        elif job.command == "check":
            problems = _check_check(job, code, text)
        elif job.command == "covary":
            problems = _check_covary(job, code, text)
            rows = 1
        elif job.command == "compare":
            problems, rows = _check_compare(job, code, text)
        elif job.command == "condition":
            problems = _check_condition(job, code, text)
        else:
            problems = [f"no checker for command {job.command!r}"]
        if job.fixture:
            problems += _check_reference(job, code, text, reference)
    except (ValueError, KeyError, IndexError, TypeError) as e:
        # malformed output is the program's failure, not the checker's
        return [f"unparseable output: {type(e).__name__}: {e}"], 0
    return problems, rows
