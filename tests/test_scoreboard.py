"""Correctness scoreboard: a fixed grid of runs, each filed as right,
wrong, empty or refused, with the counts held as a ratchet.

Each model is diagonalized once and every run of its sweep measures that
one spectrum, so the whole grid costs a few seconds.  The grid is fixed
and is not to be re-picked; a change that moves a count tightens
FLOORS to the new counts.
"""

import collections

import numpy as np
import pytest

from respsim import (RespsimError, diagonalize, make_hubbard_dimer,
                     make_random_model, run_pipeline)


def _classify(sd, **kw) -> str:
    """right: within criterion 07 (pointwise error <= 10% of |ref|) or
    criterion 08 (max|err| <= 15% of max|ref|); wrong or empty (nothing
    assembled) at exit 0; refused (a RespsimError, a non-zero exit)."""
    try:
        res = run_pipeline(sd, **kw)
    except RespsimError:
        return "refused"
    if res["result"] is None:
        return "empty"
    ref = res["oracle"].values
    err = np.abs(res["result"].values - ref)
    within_07 = np.all(err <= 0.10 * np.abs(ref))
    within_08 = np.max(err) <= 0.15 * np.max(np.abs(ref))
    return "right" if within_07 or within_08 else "wrong"


def _dimer_o1():
    """The dimer-o1-ae workload (README scenario 2) on seeds 0-399."""
    sd = diagonalize(make_hubbard_dimer(1.0, 2.0, 0.5))
    for seed in range(400):
        yield sd, dict(gamma=0.1, method="ae",
                       grid=np.linspace(0.0, 5.4, 41), seed=seed)


def _random_o1():
    """Order 1 at gamma 0.1 on random models n=3 at 2 electrons and n=4 at
    4, model seeds 0-9."""
    for n, ne in ((3, 2), (4, 4)):
        for s in range(10):
            yield diagonalize(make_random_model(n, ne, s)), dict(gamma=0.1)


def _random_o3():
    """Order 3 on random models n=2, 3 at 2 electrons, model seeds 0-3,
    gamma 0.2 and 0.4, chains xxxx, yxxy and xyzx: 48 runs."""
    for n in (2, 3):
        for s in range(4):
            sd = diagonalize(make_random_model(n, 2, s))
            for gamma in (0.2, 0.4):
                for axes in ((0, 0, 0, 0), (1, 0, 0, 1), (0, 1, 2, 0)):
                    yield sd, dict(gamma=gamma, order=3, axes=axes,
                                   method="exact")


GRIDS = {"dimer o1 ae": _dimer_o1, "random o1": _random_o1,
         "random o3": _random_o3}

# the counts at which the ratchet stands: "right" may only rise, "empty"
# only fall, and no run may be wrong at exit 0
FLOORS = {
    "dimer o1 ae": {"right": 356, "empty": 44},
    "random o1": {"right": 0, "empty": 20},
    "random o3": {"right": 0, "empty": 48},
}


@pytest.mark.parametrize("grid", GRIDS)
def test_scoreboard_ratchet(grid):
    counts = collections.Counter(_classify(sd, **kw)
                                 for sd, kw in GRIDS[grid]())
    floor = FLOORS[grid]
    assert counts["wrong"] == 0, dict(counts)
    assert counts["right"] >= floor["right"], dict(counts)
    assert counts["empty"] <= floor["empty"], dict(counts)
