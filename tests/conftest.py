"""Shared fixtures and brute-force oracles.

The oracles here deliberately avoid the stabilizer-chain machinery: group
closure is computed by repeated multiplication of raw image tuples over
plain sets, and never touches a chain, so order, membership and
intersection claims can be checked against an independent path.

Every hypothesis test draws the same examples on every run: the profile
loaded here derandomizes the draws and keeps no example database.  Each
test's own settings, such as ``max_examples``, still apply.
"""

import pytest
from hypothesis import settings

from cprforge.paper_cases import closure_tuples, corpus as _corpus
from cprforge.perm_core import Permutation

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


def closure_set(gens, degree):
    """``closure_tuples`` wrapped as ``Permutation`` objects."""
    return set(map(Permutation._from_tuple, closure_tuples(gens, degree)))


def closure_order(gens, degree):
    return len(closure_tuples(gens, degree))


@pytest.fixture(scope="session")
def graph_corpus():
    return _corpus()
