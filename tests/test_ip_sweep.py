"""Both intersection-property checkers against reference models of their order.

``check_ip_recursive`` is one column sweep and ``check_ip_full`` one mask
loop.  The models below are the memoized recursive descent and the
subset-pair generator they replaced.  A spy on ``Sggi._node_check``
records the node checks a checker makes; the model then replays those
results and must ask for exactly the same (left, right) pairs, in the same
order, and end with the same certificate.
"""

import pytest

from cprforge import cli
from cprforge import constructions as cons
from cprforge.cgroup import IpCertificate, Sggi
from cprforge.paper_cases import corpus
from cprforge.perm_core import Permutation
from cprforge.prg import LabeledGraph


def recursive_model(sggi, node_check):
    """The memoized recursive descent over contiguous label intervals."""
    memo = {}

    def check(i, j):
        if (i, j) in memo:
            return memo[(i, j)]
        if j - i + 1 <= 1:
            result = IpCertificate("pass")
        else:
            result = check(i, j - 1)
            if result.ok:
                result = check(i + 1, j)
            if result.ok:
                result = node_check(tuple(range(i, j)), tuple(range(i + 1, j + 1)))
        memo[(i, j)] = result
        return result

    return check(sggi.window.lo, sggi.window.hi)


def full_model(sggi, node_check):
    """Every mask pair a < b with no containment; bit k selects label lo+k."""
    lo, rank = sggi.window.lo, sggi.rank

    def mask_labels(mask):
        return tuple(lo + k for k in range(rank) if mask >> k & 1)

    total = 1 << rank
    for a in range(1, total):
        for b in range(a + 1, total):
            common = a & b
            if common == a or common == b:
                continue
            cert = node_check(mask_labels(a), mask_labels(b))
            if not cert.ok:
                return cert
    return IpCertificate("pass")


def spied_run(monkeypatch, sggi, method):
    """Run a checker; return its certificate and its node checks in order."""
    calls = []
    original = Sggi._node_check

    def spy(self, left, right, A, B, C, cap):
        cert = original(self, left, right, A, B, C, cap)
        calls.append(((left, right), cert))
        return cert

    monkeypatch.setattr(Sggi, "_node_check", spy)
    try:
        cert = getattr(sggi, method)()
    finally:
        monkeypatch.setattr(Sggi, "_node_check", original)
    return cert, calls


def assert_same_order(monkeypatch, sggi, method, model):
    cert, calls = spied_run(monkeypatch, sggi, method)
    replay = iter(calls)

    def node_check(left, right):
        pair, recorded = next(replay, (None, None))
        assert pair == (left, right)
        return recorded

    assert model(sggi, node_check) == cert
    assert next(replay, None) is None


CASES = corpus() + [("simplex(9)", cons.simplex(9))]


@pytest.mark.parametrize("name,g", CASES, ids=[name for name, _ in CASES])
def test_both_modes_follow_the_reference_order(monkeypatch, name, g):
    sggi = Sggi.from_graph(g)
    assert_same_order(monkeypatch, sggi, "check_ip_recursive", recursive_model)
    assert_same_order(monkeypatch, Sggi.from_graph(g), "check_ip_full", full_model)


# -- a rank far beyond Python's recursion limit ---------------------------------

RANK = 1100


@pytest.fixture(scope="module")
def repeated_edge_path(tmp_path_factory):
    """2 vertices, labels 0..1099, each label the edge 1-2."""
    path = tmp_path_factory.mktemp("rank") / "repeated.prg"
    lines = ["vertices 2"] + [f"edge {k} 1 2" for k in range(RANK)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_high_rank_sweep_needs_no_recursion(repeated_edge_path):
    g = LabeledGraph.parse(repeated_edge_path.read_text(encoding="utf-8"))
    cert = Sggi.from_graph(g).check_ip_recursive()
    assert cert == IpCertificate(
        "fail", left=(0,), right=(1,), meet=(), expected_order=1, actual_order=2,
        witness=Permutation.from_cycles(2, [(1, 2)]))


def test_high_rank_check_exits_2(repeated_edge_path, capsys):
    assert cli.main(["check", str(repeated_edge_path)]) == 2
    out, err = capsys.readouterr()
    assert "FAILS at kept labels [0] vs [1]" in out
    assert "witness (1,2)" in out
    assert err == ""


# -- full mode looks each section up once, by mask ------------------------------

@pytest.mark.parametrize("g", [cons.simplex(8), cons.family_graph_x(6, 2)],
                         ids=["simplex(8)", "graph_x(6,2)"])
def test_full_mode_looks_up_each_mask_once(monkeypatch, g):
    """At most 2**rank section lookups, none repeated, and only the sections
    of the nodes checked up to the reported one: a failure stops early."""
    sggi = Sggi.from_graph(g)
    lookups = []
    original = Sggi.section

    def counting_section(self, labels):
        lookups.append(tuple(labels))
        return original(self, labels)

    monkeypatch.setattr(Sggi, "section", counting_section)
    cert = sggi.check_ip_full()
    monkeypatch.setattr(Sggi, "section", original)
    assert len(lookups) <= 2 ** sggi.rank
    assert len(set(lookups)) == len(lookups)

    reached = set()

    def node_check(left, right):
        reached.update((left, right, tuple(sorted(set(left) & set(right)))))
        return cert if (left, right) == (cert.left, cert.right) else IpCertificate("pass")

    assert full_model(sggi, node_check) == cert
    assert set(lookups) == reached
