"""Seeded inputs for the gsens benchmark: model files and job lists.

Only the standard library is used here, so numpy is first imported when the
benchmark times the import of ``gsens.cli``.

A job is one ``gsens`` invocation. Its model is either a bundled fixture
(``fixture:<name>``) or a generated model file named relative to the
directory the runner writes the generated files to. Jobs on bundled fixtures
do not depend on the seed; their outputs are compared with the reference in
``reference/fixtures.json``.

Every generator draws from two random streams. The shape stream has a fixed
seed per workload: it picks each random DAG's variable order and parents, the
covariance positions a job varies and the variables it observes. The value
stream is seeded from ``--seed``: it draws the edge coefficients, the factors
of ``--deltas`` and ``--delta`` and the evidence values. How much work a job
is depends on the shape of its DAG and its positions (which statements a plan
unions, which minors a CI check enumerates), so seeds change every number
the program sees without changing how much work a run is.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field

WORKLOADS = ("grid-sweeps", "ci-scale", "point-queries")
SCHEMES = ("standard", "total", "partial", "row", "column")


@dataclass(frozen=True)
class Job:
    """One CLI call: ``gsens <command> <model> <args...>``.

    grid holds the factor-grid sizes of a sweep (one entry per varied
    position); n and evidence are what the checker needs for ``condition``.
    """

    command: str
    model: str
    args: tuple[str, ...]
    grid: tuple[int, ...] = ()
    fmt: str = "csv"
    n: int = 0
    evidence: int = 0

    @property
    def fixture(self) -> bool:
        return self.model.startswith("fixture:")

    @property
    def key(self) -> str:
        return " ".join((self.command, self.model) + self.args)


@dataclass
class Inputs:
    """Generated model files (name -> JSON text) and the job list of one pass."""

    files: dict[str, str] = field(default_factory=dict)
    jobs: list[Job] = field(default_factory=list)

    def dump(self) -> str:
        """Canonical text of the whole input set; equal seeds give equal text."""
        return json.dumps(
            {"files": self.files, "jobs": [asdict(j) for j in self.jobs]},
            sort_keys=True,
            indent=1,
        )


def grid_size(lo: float, hi: float, step: float) -> int:
    """Number of factors in lo, lo+step, ..., hi (both ends inclusive)."""
    return int(round((hi - lo) / step)) + 1


def _range_args(lo: float, hi: float, step: float) -> tuple[str, ...]:
    return ("--delta-min", repr(lo), "--delta-max", repr(hi), "--delta-step", repr(step))


@dataclass(frozen=True)
class Dag:
    names: tuple[str, ...]
    order: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]  # (parent, child, beta)

    def model_text(self) -> str:
        return json.dumps(
            {
                "variables": list(self.names),
                "dag": {
                    "order": list(self.order),
                    "edges": [{"from": p, "to": c, "beta": b} for p, c, b in self.edges],
                },
            },
            indent=1,
        ) + "\n"

    def position(self, edge: tuple[str, str, float]) -> str:
        return f"{edge[1]},{edge[0]}"


def _beta(rng: random.Random, parents: int) -> float:
    # Scaling by 1/sqrt(parents) keeps variances of order one down long
    # chains, so base covariances stay well conditioned at n = 16.
    magnitude = rng.uniform(0.3, 0.9) / parents**0.5
    return round(magnitude if rng.random() < 0.5 else -magnitude, 4)


def random_dag(shape: random.Random, values: random.Random, n: int, in_degree) -> Dag:
    """DAG whose vertex at topological position k has in_degree(k) parents
    (capped at k), drawn uniformly from its predecessors by shape; values
    draws the coefficients."""
    names = tuple(f"X{k + 1}" for k in range(n))
    order = list(names)
    shape.shuffle(order)
    edges = []
    for k, child in enumerate(order):
        count = min(k, in_degree(k))
        parents = sorted(shape.sample(range(k), count))
        edges.extend((order[p], child, _beta(values, count)) for p in parents)
    return Dag(names, tuple(order), tuple(edges))


def near_complete_dag(shape: random.Random, values: random.Random, n: int) -> Dag:
    """Complete DAG minus one edge: it implies exactly one CI statement,
    which ``compare`` needs."""
    names = tuple(f"V{k + 1}" for k in range(n))
    order = list(names)
    shape.shuffle(order)
    child_pos = shape.randrange(1, n)
    missing = (shape.randrange(child_pos), child_pos)
    edges = []
    for c in range(1, n):
        parents = [p for p in range(c) if (p, c) != missing]
        edges.extend((order[p], order[c], _beta(values, max(1, len(parents)))) for p in parents)
    return Dag(names, tuple(order), tuple(edges))


def _grid_sweeps(shape: random.Random, values: random.Random) -> Inputs:
    inp = Inputs()
    one = (0.8, 1.2, 0.005)
    wide = (0.75, 1.25, 0.005)
    narrow = (0.9, 1.1, 0.002)
    two = (0.9, 1.1, 0.02)
    # the union-block path costs about three times as much per row, so
    # generated models get smaller grids
    dag_one = (0.8, 1.2, 0.01)
    dag_two = (0.92, 1.08, 0.02)
    g_one, g_wide, g_narrow, g_two, g_dag_one, g_dag_two = (
        grid_size(*g) for g in (one, wide, narrow, two, dag_one, dag_two)
    )
    fixture_jobs = [
        Job("sweep", "fixture:synthetic4", ("--pos", "Y2,Y1") + _range_args(*wide), (g_wide,)),
        Job("sweep", "fixture:synthetic4", ("--pos", "Y3,Y2", "--format", "json") + _range_args(*one),
            (g_one,), "json"),
        Job("sweep", "fixture:cachexia_control", ("--pos", "V,B") + _range_args(*one), (g_one,)),
        Job("sweep", "fixture:cachexia", ("--pos", "GM,V", "--format", "json") + _range_args(*narrow),
            (g_narrow,), "json"),
        Job("sweep", "fixture:cachexia", ("--pos", "GC,B") + _range_args(*one), (g_one,)),
        Job("sweep2", "fixture:synthetic4", ("--pos", "Y2,Y1", "--pos2", "Y3,Y2") + _range_args(*two),
            (g_two, g_two)),
        Job("sweep2", "fixture:cachexia_control",
            ("--pos", "B,V", "--pos2", "GM,A", "--format", "json") + _range_args(*two),
            (g_two, g_two), "json"),
    ]
    dag_jobs = []
    # n = 6 and 5 with alternating one and two parents: three or four
    # statements with non-empty conditioning sets, so row, column and partial
    # plans go through the union-block construction. The sweep2 jobs are the
    # costliest of the pass. With 25 jobs a pass the median falls in the
    # middle of the samples of the 13th-costliest job and the 90th percentile
    # in the middle of those of the third-costliest, not on an edge between
    # two jobs' samples, where the order of two jobs would decide the value.
    for k in range(9):
        dag = random_dag(shape, values, 6 - k % 2, lambda pos: 1 + pos % 2)
        name = f"sweep-dag{k}.json"
        inp.files[name] = dag.model_text()
        e1, e2 = shape.sample(dag.edges, 2)
        fmt = ("csv", "json")[k // 2 % 2]
        fmt_args = ("--format", "json") if fmt == "json" else ()
        dag_jobs.append(Job("sweep", name, ("--pos", dag.position(e1)) + fmt_args + _range_args(*dag_one),
                            (g_dag_one,), fmt))
        dag_jobs.append(Job("sweep2", name,
                            ("--pos", dag.position(e1), "--pos2", dag.position(e2)) + fmt_args
                            + _range_args(*dag_two), (g_dag_two, g_dag_two), fmt))
    inp.jobs = fixture_jobs + dag_jobs
    return inp


def _three_factors(rng: random.Random) -> str:
    return f"{round(rng.uniform(0.85, 0.97), 3)!r},1.0,{round(rng.uniform(1.03, 1.15), 3)!r}"


def _ci_scale(shape: random.Random, values: random.Random) -> Inputs:
    """Checks on n = 10, 12, 14 and 16, then 3-factor sweeps on five DAGs
    with n = 11 to 13 and four with n = 16, each job on a DAG of its own.

    A sweep runs the CI check once per admissible row, so it costs about
    fifteen checks: the jobs fall into three cost bands (checks; n = 11-13
    sweeps; n = 16 sweeps) of 4, 5 and 4 jobs a pass. Of 13 jobs, the median
    falls inside the middle band and the 90th percentile inside the top one.
    Within each band the DAG sizes and shapes differ, so its job times spread
    wider than the host's speed swings: a quantile taken inside a band of
    near-equal jobs would jump between the host's fast and slow modes.
    """
    inp = Inputs()
    sizes = [("check", n) for n in (10, 12, 14, 16)] + [("sweep", n) for n in (11, 12, 13, 11, 13)] + [("sweep", 16)] * 4
    # Parent counts cycle 1, 2, 3 along the order: statements conditioning on
    # one to three variables, i.e. 2x2 to 4x4 minors.
    for k, (command, n) in enumerate(sizes):
        dag = random_dag(shape, values, n, lambda pos: 1 + pos % 3)
        name = f"ci-dag{k}.json"
        inp.files[name] = dag.model_text()
        if command == "check":
            inp.jobs.append(Job("check", name, ()))
        else:
            edge = shape.choice(dag.edges)
            inp.jobs.append(Job("sweep", name, ("--pos", dag.position(edge), "--deltas", _three_factors(values)),
                                (3,)))
    return inp


def _point_queries(shape: random.Random, values: random.Random) -> Inputs:
    inp = Inputs()
    fx = "fixture:"
    jobs = [
        Job("check", fx + "synthetic4", ()),
        Job("check", fx + "cachexia_control", ()),
        Job("check", fx + "cachexia", ()),
        Job("covary", fx + "synthetic4", ("--pos", "Y2,Y1", "--delta", "1.05", "--scheme", "total")),
        Job("covary", fx + "synthetic4", ("--pos", "Y2,Y1", "--delta", "1.05", "--scheme", "partial")),
        Job("covary", fx + "synthetic4", ("--pos", "Y2,Y1", "--delta", "1.05", "--scheme", "row")),
        Job("covary", fx + "synthetic4", ("--pos", "Y2,Y1", "--delta", "1.2", "--scheme", "column")),
        Job("covary", fx + "synthetic4", ("--pos", "Y3,Y1", "--delta", "0.9", "--scheme", "row")),
        Job("covary", fx + "cachexia_control", ("--pos", "V,B", "--delta", "1.1", "--scheme", "partial")),
        Job("compare", fx + "synthetic4", ("--pos", "Y2,Y1", "--delta", "1.02")),
        Job("compare", fx + "synthetic4", ("--pos", "Y3,Y1", "--delta", "0.95")),
        Job("condition", fx + "synthetic4", ("--evidence", "Y2=1"), n=4, evidence=1),
        Job("condition", fx + "cachexia", ("--evidence", "GM=100,A=50"), n=6, evidence=2),
        Job("condition", fx + "cachexia_control", ("--evidence", "B=2"), n=6, evidence=1),
    ]
    for k in range(8):
        n = 4 + k % 4
        dag = near_complete_dag(shape, values, n)
        name = f"point-dag{k}.json"
        inp.files[name] = dag.model_text()
        e1, e2 = shape.sample(dag.edges, 2)
        scheme = ("total", "partial", "row", "column")[k % 4]
        observed = shape.sample(dag.names, 1 + k % 2)
        evidence = ",".join(f"{v}={round(values.uniform(-2.0, 2.0), 3)!r}" for v in observed)
        jobs += [
            Job("check", name, ()),
            Job("covary", name, ("--pos", dag.position(e1), "--delta",
                                 repr(round(values.uniform(0.8, 1.25), 3)), "--scheme", scheme)),
            Job("compare", name, ("--pos", dag.position(e2), "--delta", repr(round(values.uniform(0.8, 1.25), 3)))),
            Job("condition", name, ("--evidence", evidence), n=n, evidence=len(observed)),
        ]
    inp.jobs = jobs
    return inp


_GENERATORS = {"grid-sweeps": _grid_sweeps, "ci-scale": _ci_scale, "point-queries": _point_queries}


def generate(workload: str, seed: int) -> Inputs:
    """Model files and one pass's job list for a workload and seed."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    return _GENERATORS[workload](random.Random(f"{workload}:shape"), random.Random(f"{workload}:{seed}"))
