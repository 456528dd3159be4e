"""Shared fixtures and brute-force oracles.

The oracles here deliberately avoid the stabilizer-chain machinery: group
closure is computed by repeated multiplication of raw image tuples over
plain sets, and never touches a chain, so order, membership and
intersection claims can be checked against an independent path.
"""

import pytest

from cprforge.paper_cases import closure_set, closure_tuples, corpus as _corpus


def closure_order(gens, degree):
    return len(closure_tuples(gens, degree))


@pytest.fixture(scope="session")
def graph_corpus():
    return _corpus()
