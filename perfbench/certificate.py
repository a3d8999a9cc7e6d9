"""Workload `certificate`: one op is a whole in-process `verify_all(seed)`.

This is the product itself, at the full sample counts.  The report must
read 47 passed, 0 failed and 3 cited, and the sha256 of its JSON document
(as `spincalc verify-all --json` prints it) must equal the behaviour
contract.  The document holds no seed-dependent text when every check
passes, so the hash is checked at every seed, not only at 1729.
"""

from __future__ import annotations

import hashlib

from common import Op, State

CONTRACT_SHA256 = \
    "bee80b2b0d7ecfebdb6134d293ed31fe598f76b9f747352e0412c21504b58e29"
EXPECTED_COUNTS = (47, 0, 3)
#: a run times at least this many certificates and reports their median
MIN_OPS = 2


def setup(root, seed: int, toy: bool) -> State:
    from spincalc import checks

    # warm-up that users pay once per process, not per certificate
    checks.verify_all(seed, quick=True)
    samples = checks.QUICK_SAMPLES if toy else checks.FULL_SAMPLES

    def certificate():
        return checks.verify_all(seed, quick=toy)

    def check(report, expected):
        counts, sha = expected
        if (report.passed, report.failed, report.cited) != counts:
            return False
        doc = checks.render_json(report) + "\n"
        return sha is None or hashlib.sha256(doc.encode()).hexdigest() == sha

    op = Op("verify_all", certificate,
            (EXPECTED_COUNTS, None if toy else CONTRACT_SHA256), check)
    return State(units=[[op]], traced_units=[[op]],
                 sizes={"ops_per_block": {"verify_all": 1},
                        "samples": list(samples)},
                 min_ops=1 if toy else MIN_OPS)
