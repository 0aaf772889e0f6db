"""Deliberately breaks the lock-box protocol.

Requests held-out group 5 before any unlock; the guard must refuse, and this
script must exit with the CLI's lock-box error code.  Run it directly:

    python tests/violate_lockbox.py
"""

import random
import sys
import tempfile
from pathlib import Path

from strokepred.cli import EXIT_LOCKBOX
from strokepred.core import SEVERITY_CATEGORIES, SubjectRecord
from strokepred.evalharness import (LockBox, LockBoxError, audit_scan,
                                    stratified_partition)


def main() -> int:
    rng = random.Random(17)
    records = [
        SubjectRecord(id=f"s{i:04d}",
                      severity=rng.choice(SEVERITY_CATEGORIES),
                      recovery_time=rng.uniform(7, 900),
                      left_lesion_size=rng.randrange(0, 4000),
                      score=rng.uniform(30, 80))
        for i in range(50)
    ]
    plan = stratified_partition(records, k=5, seed=3)
    audit = Path(tempfile.mkdtemp()) / "audit.jsonl"
    box = LockBox(plan, audit)
    box.request([1, 2, 3], "training")  # legitimate
    try:
        box.request([5], "premature-final-eval")  # the violation
    except LockBoxError as exc:
        scan = audit_scan(audit)
        print(f"blocked as required: {exc}", file=sys.stderr)
        print(f"audit recorded {scan['n_violations']} violation(s)",
              file=sys.stderr)
        return EXIT_LOCKBOX
    print("group 5 was handed out before unlock; protocol is broken",
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
