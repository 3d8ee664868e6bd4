"""Acceptance suite: each criterion runs at its stated tolerance and budget.

The criteria live in proofbench.regress so the CLI `regress` verb and this
module stay in lockstep; here each one is asserted and its pass/fail line
printed.
"""

import hashlib
import os
import random
import subprocess
import sys

import pytest

import proofbench
from proofbench import regress

# name, limit and details of each criterion as `regress --json --seed 0`
# prints them: run_all(seed=0) runs criterion n with Random(n) too
SEED_0 = {
    1: ("ordinal-oracle-equivalence", 30.0,
        "216 notations, 46656 pairs, 0 mismatches, 0 pow2 misses"),
    2: ("pow2-spot-identities", 5.0,
        "100 successor identities"),
    3: ("checker-soundness-sensitivity", 60.0,
        "Fin(1..8) pass, 100 mutations all caught"),
    4: ("transformation-contracts", 60.0,
        "200 randomized derivations: weaken + invert contracts hold"),
    5: ("executable-otyp-bound", 60.0,
        "11 orderings certified with 200-element rank sweeps"),
    6: ("bound-extraction-engine", 60.0,
        "Fin(1..5): exact gamma, true claims, witness arithmetic asserted inline"),
    7: ("certified-sup-witness", 30.0,
        "3 enumerations strictly dominated; fresh certificates check out"),
    8: ("incompleteness-lab", 120.0,
        "retype=w^2 over 300 elements; reversal culprit extracted; chain descent confirmed"),
    9: ("format-round-trips", 10.0,
        "2500 objects, 0 round-trip failures"),
}


@pytest.mark.parametrize("number", range(1, 10))
def test_criterion(number):
    criterion = regress.CRITERIA[number - 1]
    result = criterion(random.Random(number))
    print(regress.format_result(result))
    assert result.ok, f"criterion {number} failed: {result.details}"
    assert (result.name, result.limit, result.details) == SEED_0[number]
    assert result.seconds < result.limit, (
        f"criterion {number} exceeded its time budget: {result.seconds:.1f}s"
        f" >= {result.limit:.0f}s"
    )


# sha256 of the stdout of `regress --json --seed 0`: every criterion's
# verdict and details, byte for byte
SEED_0_DIGEST = "18dc38c6b42f9d35bd43f9474d375a9f81fda472d95129660ca7d4c007ba5419"


def test_regress_json_keeps_its_digest():
    # the exit status is not compared: it depends on each criterion's wall-clock limit
    src = os.path.dirname(os.path.dirname(proofbench.__file__))
    done = subprocess.run([sys.executable, "-m", "proofbench.cli", "regress", "--json", "--seed", "0"],
                          capture_output=True, env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="1"),
                          timeout=300)
    assert hashlib.sha256(done.stdout).hexdigest() == SEED_0_DIGEST, done.stderr.decode()
