"""``Sggi.check_string_property`` against the product formula it replaced.

The checker compares raw image tuples, asks only whether two involutions
commute, and skips pairs with disjoint supports.  The reference model below
is the old formula: compose each pair twice as ``Permutation`` objects and
test (rho_i rho_j)^2 for the identity, in the same (i, j) order.
"""

from hypothesis import given

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
