"""Shared fixtures and brute-force oracles.

The oracles here deliberately avoid the stabilizer-chain machinery: group
closure is computed by repeated multiplication over plain sets, so order,
membership and intersection claims can be checked against an independent
path.
"""

import pytest

from cprforge.paper_cases import closure_set, corpus as _corpus


def closure_order(gens, degree):
    return len(closure_set(gens, degree))


@pytest.fixture(scope="session")
def graph_corpus():
    return _corpus()
