"""Differential checks on random graphs, beyond the fixed corpus.

Recursive mode, full mode and ``intersection`` share one intersection scan,
so their agreement alone no longer tests that scan.  Every failing
certificate is therefore also re-checked against the brute-force closure
oracle in ``conftest``, which never touches a stabilizer chain, and so is
the order of every section, most of which extend a cached section's chain.
"""

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cprforge.cgroup import Sggi
from cprforge.prg import LabeledGraph

from conftest import closure_set

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def graphs(draw, max_n=9, max_labels=6):
    """2 <= n <= max_n vertices, labels 0..k-1 with 2 <= k <= max_labels,
    each label a non-empty matching."""
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(2, max_labels))
    edges = []
    for label in range(k):
        order = draw(st.permutations(range(1, n + 1)))
        m = draw(st.integers(1, n // 2))
        edges.extend((label, order[2 * e], order[2 * e + 1]) for e in range(m))
    return LabeledGraph(n, edges)


def assert_certificate_verifies(sggi, cert):
    """The witness lies in <left> and <right> but not in <meet>, and both
    orders match the closure oracle."""
    def closure(labels):
        return closure_set([sggi.generator(l) for l in labels], sggi.degree)

    left, right, meet = closure(cert.left), closure(cert.right), closure(cert.meet)
    assert cert.meet == tuple(sorted(set(cert.left) & set(cert.right)))
    assert cert.witness in left and cert.witness in right
    assert cert.witness not in meet
    assert cert.actual_order == len(left & right)
    assert cert.expected_order == len(meet)


@SETTINGS
@given(graphs())
def test_recursive_and_full_agree(g):
    sggi = Sggi.from_graph(g)
    recursive = sggi.is_string_c_group(mode="recursive")
    full = Sggi.from_graph(g).is_string_c_group(mode="full")
    assert recursive.is_string_c_group == full.is_string_c_group
    assert bool(recursive.string_property) == bool(full.string_property)


@SETTINGS
@given(graphs())
def test_failing_certificates_reverify(g):
    # the intersection scan is exercised with or without the string property
    sggi = Sggi.from_graph(g)
    for cert in (sggi.check_ip_recursive(), sggi.check_ip_full()):
        if not cert.ok:
            assert_certificate_verifies(sggi, cert)


# every label subset is closed, which at n <= 9 takes minutes, not seconds
@SETTINGS
@given(graphs(max_n=7, max_labels=5))
def test_section_orders_match_closure(g):
    sggi = Sggi.from_graph(g)
    labels = list(sggi.window.labels())
    for size in range(len(labels) + 1):
        for kept in itertools.combinations(labels, size):
            gens = [sggi.generator(l) for l in kept]
            assert sggi.section(kept).order == len(closure_set(gens, g.n)), kept
