"""Capture the reference outputs of the bundled-fixture jobs.

    python3 perfbench/make_reference.py

Writes reference/fixtures.json: per fixture job, its exit code, the SHA-256
of its stdout with the KL values cut out, and the KL values. Run it only to
re-baseline on purpose: the checker compares later commits with this file.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE, SRC, argv_of, execute
from checker import reference_entry
from workloads import WORKLOADS, generate


def main() -> int:
    sys.path.insert(0, str(SRC))
    import gsens.cli

    reference = {}
    for workload in WORKLOADS:
        for job in generate(workload, 0).jobs:
            if job.fixture:
                code, text, _ = execute(gsens.cli.main, argv_of(job, REFERENCE.parent))
                reference[job.key] = reference_entry(job, code, text)
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} fixture references to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
