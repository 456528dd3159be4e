"""``Sggi.check_string_property`` against the product formula it replaced.

The checker compares raw image tuples, asks only whether two involutions
commute, decides that once per pair of distinct involutions, and skips pairs
with disjoint supports.  The reference model below is the old formula:
compose each pair twice as ``Permutation`` objects and test
(rho_i rho_j)^2 for the identity, in the same (i, j) order.
"""

from hypothesis import given
from hypothesis import strategies as st

from cprforge import cgroup
from cprforge.cgroup import Sggi, StringPropertyVerdict
from cprforge.perm_core import compose
from cprforge.prg import LabeledGraph

from test_random_graphs import SETTINGS, graphs


def reference_string_property(sggi):
    labels = list(sggi.window.labels())
    for idx, i in enumerate(labels):
        for j in labels[idx + 2:]:
            prod = compose(sggi.generator(i), sggi.generator(j))
            if not compose(prod, prod).is_identity():
                return StringPropertyVerdict(False, (i, j))
    return StringPropertyVerdict(True)


def test_corpus_matches_reference(graph_corpus):
    for name, g in graph_corpus:
        for sggi in (Sggi.from_graph(g), Sggi.from_graph(g.dual())):
            assert sggi.check_string_property() == reference_string_property(sggi), name


@SETTINGS
@given(graphs(max_labels=10))
def test_random_graphs_match_reference(g):
    sggi = Sggi.from_graph(g)
    assert sggi.check_string_property() == reference_string_property(sggi)


def test_first_failing_pair_is_reported():
    # 0 and 2 have disjoint supports; 1 and 3 share points but are equal;
    # 0 and 4 share point 2 and do not commute, nor do 1 and 4 later
    g = LabeledGraph(6, [(0, 1, 2), (1, 3, 4), (2, 5, 6), (3, 3, 4),
                         (4, 2, 3)])
    sggi = Sggi.from_graph(g)
    assert sggi.check_string_property() == StringPropertyVerdict(False, (0, 4))
    assert reference_string_property(sggi) == StringPropertyVerdict(False, (0, 4))


def repeated_labels(rank, special):
    """Every label is the involution (1,2) except those in ``special``."""
    edges = []
    for label in range(rank):
        a, b = special.get(label, (1, 2))
        edges.append((label, a, b))
    return LabeledGraph(5, edges)


def test_late_failing_pair_among_repeated_labels():
    # (3,4) and (4,5) do not commute; they sit side by side at 50, 51 and
    # again at 140, 141, so the first pair at distance >= 2 is (50, 140)
    g = repeated_labels(200, {50: (3, 4), 51: (4, 5), 140: (4, 5), 141: (3, 4)})
    sggi = Sggi.from_graph(g)
    assert reference_string_property(sggi) == StringPropertyVerdict(False, (50, 140))
    assert sggi.check_string_property() == StringPropertyVerdict(False, (50, 140))
    # without the second pair every clash is between neighbours
    passing = Sggi.from_graph(repeated_labels(200, {50: (3, 4), 51: (4, 5)}))
    assert reference_string_property(passing) == StringPropertyVerdict(True)
    assert passing.check_string_property() == StringPropertyVerdict(True)


def test_equal_labels_commute_once(monkeypatch):
    calls = []
    mul = cgroup._mul

    def counting(p, q):
        calls.append(1)
        return mul(p, q)

    monkeypatch.setattr(cgroup, "_mul", counting)
    sggi = Sggi.from_graph(LabeledGraph(2, [(k, 1, 2) for k in range(1100)]))
    assert sggi.check_string_property() == StringPropertyVerdict(True)
    # one distinct involution: one commutation test, with itself
    assert len(calls) == 2


@st.composite
def pooled_graphs(draw):
    """Up to 40 labels, each one of at most four matchings on n <= 7 points,
    so most labels repeat an earlier involution."""
    n = draw(st.integers(2, 7))
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        order = draw(st.permutations(range(1, n + 1)))
        m = draw(st.integers(1, n // 2))
        pool.append([(order[2 * e], order[2 * e + 1]) for e in range(m)])
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=40))
    return LabeledGraph(n, [(label, a, b) for label, k in enumerate(picks)
                            for a, b in pool[k]])


@SETTINGS
@given(pooled_graphs())
def test_repeated_involutions_match_reference(g):
    sggi = Sggi.from_graph(g)
    assert sggi.check_string_property() == reference_string_property(sggi)
