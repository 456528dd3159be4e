"""A build makes one group's chain and no other's.

A group's chain is built from a copy of its prefix's chain when that chain
is built, else from every input inserted into an empty chain.  Either way
it equals the chain inserted input by input from scratch, and neither
constructing a group nor reading its chain builds its prefix's chain.
"""

import itertools

from cprforge import constructions as cons
from cprforge.cgroup import Sggi
from cprforge.perm_core import PermGroup, Permutation

from test_chain_builds import chain_state
from test_lazy_chain import eager


def unbuilt(group):
    return group._state is None


def record_grows(monkeypatch):
    """Spy on ``PermGroup._grow``: the groups whose chain each call builds."""
    grown = []
    grow = PermGroup._grow

    def recording(self, prefix_chain):
        grown.append(self)
        return grow(self, prefix_chain)

    monkeypatch.setattr(PermGroup, "_grow", recording)
    return grown


def transpositions(n):
    return [Permutation.from_cycles(n, [(a, a + 1)]) for a in range(1, n)]


def test_uncertified_extension_leaves_its_certified_prefix_unbuilt(monkeypatch):
    flip = Permutation.from_cycles(4, [(1, 3)])
    prefix = PermGroup([flip], degree=4)
    assert unbuilt(prefix)
    # the dihedral group of order 8, which stays uncertified
    rotation = Permutation.from_cycles(4, [(1, 2, 3, 4)])
    grown_by = record_grows(monkeypatch)
    grown = PermGroup([rotation], degree=4, extends=prefix)
    assert grown_by == [grown]
    assert unbuilt(prefix) and not unbuilt(grown)
    assert chain_state(grown) == chain_state(eager([flip, rotation], 4))
    assert chain_state(prefix) == chain_state(eager([flip], 4))


def test_reading_a_certified_chain_leaves_its_prefix_unbuilt(monkeypatch):
    t = transpositions(6)
    prefix = PermGroup(t[:2], degree=6)
    group = PermGroup(t[2:], degree=6, extends=prefix)
    assert unbuilt(prefix) and unbuilt(group)
    grown_by = record_grows(monkeypatch)
    assert chain_state(group) == chain_state(eager(t, 6))
    assert grown_by == [group]
    assert unbuilt(prefix)
    # the prefix builds its own chain when it is read
    assert chain_state(prefix) == chain_state(eager(t[:2], 6))
    assert grown_by == [group, prefix]


def test_every_section_build_builds_one_chain(monkeypatch):
    """Over every section of three graphs, built in ascending size so that
    each extends its cached prefix: each build, at construction or at a
    later read, is of the group being built or read, and of no other."""
    for g in (cons.family_graph_x(6, 2), cons.family_speccase(4),
              cons.family_workswithsimplices(3, 5)):
        sggi = Sggi.from_graph(g)
        labels = list(sggi.window.labels())
        subsets = [kept for size in range(len(labels) + 1)
                   for kept in itertools.combinations(labels, size)]
        with monkeypatch.context() as spy:
            grown_by = record_grows(spy)
            for kept in subsets:
                before = len(grown_by)
                group = sggi.section(kept)
                assert grown_by[before:] in ([], [group]), kept
            for kept in subsets:
                group = sggi.section(kept)
                before = len(grown_by)
                state = chain_state(group)
                assert grown_by[before:] in ([], [group]), kept
                assert state == chain_state(
                    eager([sggi.generator(l) for l in kept], sggi.degree)), kept
        assert len(grown_by) == len(set(map(id, grown_by)))
