"""Seeded medium-scale checks of both selection pipelines.

The property tests elsewhere stop at 7 vertices so the brute-force oracle
can referee them. These models are an order of magnitude larger and sparse,
like the networks the pipeline is meant for, so the merge heuristic runs
many passes and pruning has many roots to drop; the checks are the ones
that need no oracle.
"""

import random

import pytest

from dynetid.allocation import allocate
from dynetid.dual import _reversed_extended, measurement_bounds, select_measurements
from dynetid.identifiability import check_with_excitations, excitation_bounds
from dynetid.model import build_extended_graph
from dynetid.pseudotree import covering_violations

from .randgen import random_sparse_model
from .test_allocation import unpruned_roots

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
