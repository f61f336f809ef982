"""Seeded medium-scale checks of both selection pipelines.

The property tests elsewhere stop at 7 vertices so the brute-force oracle
can referee them. These models are an order of magnitude larger and sparse,
like the networks the pipeline is meant for, so the merge heuristic runs
many passes and pruning has many roots to drop; the checks are the ones
that need no oracle.
"""

import hashlib
import random

import pytest

from dynetid.allocation import allocate
from dynetid.dual import _reversed_extended, measurement_bounds, select_measurements
from dynetid.identifiability import check_with_excitations, excitation_bounds
from dynetid.model import build_extended_graph
from dynetid.pseudotree import algorithm1_merge, covering_violations

from .randgen import random_sparse_model
from .test_allocation import unpruned_roots
from .test_pseudotree import _dump

SIZES = (50, 60, 70, 85, 100)


@pytest.mark.parametrize("L", SIZES)
def test_both_selections_are_verified_and_bounded(L):
    m = random_sparse_model(random.Random(f"medium/{L}"), L)
    eg = build_extended_graph(m)

    result = allocate(eg)
    assert result.verified
    assert check_with_excitations(eg, result.excited).identifiable
    assert covering_violations(result.covering_used) == ()
    assert result.bounds == excitation_bounds(eg, result.covering_used)
    lower, upper = result.bounds
    assert lower <= len(result.excited) <= upper

    sel = select_measurements(eg)
    assert sel.verified
    assert covering_violations(sel.covering_used) == ()
    assert sel.bounds == measurement_bounds(eg, sel.covering_used)
    lower, upper = sel.bounds
    assert lower <= len(sel.excited) <= upper


@pytest.mark.parametrize("L", SIZES)
def test_unpruned_roots_pass_the_path_condition(L):
    forward = build_extended_graph(random_sparse_model(random.Random(f"medium/{L}"), L))
    for eg in (forward, _reversed_extended(forward)):
        assert check_with_excitations(eg, unpruned_roots(eg)).identifiable


# Trees, merges and the SHA-256 of the trace plus each final tree's sorted
# roots and edges, for the L = 3,200 sparse model and its reversal. The
# report digest's models stop at L = 250; these pin every merge decision at
# the scale where the merge matrix's encoding and pick rule act.
MERGE_PINS = {
    "extended": (228, 2972, "a7d7117513b40c27aed67848bb2c698f01f970bbc3d120e9ac72c1e36a82741d"),
    "reversed": (74, 2952, "2005bf85b8fd1783cbea7c5aeea28c3cb77fbc63fd040242edb811a445801789"),
}


@pytest.mark.parametrize("side", sorted(MERGE_PINS))
def test_merge_at_scale_is_pinned(side):
    eg = build_extended_graph(random_sparse_model(random.Random(3200), 3200))
    if side == "reversed":
        eg = _reversed_extended(eg)
    trace, trees = _dump(algorithm1_merge(eg))
    digest = hashlib.sha256(repr((trace, trees)).encode()).hexdigest()
    assert (len(trees), len(trace), digest) == MERGE_PINS[side]
