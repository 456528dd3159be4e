"""Point partitions against models that share no code with the package.

Graph components, group orbits, the symmetric-product certificate and
block systems all come from the one union-find in ``perm_core``.  Each
reference model here is kept inside this file: components by breadth-first
search, the certificate by the transposition rule it replaced plus the
product rule, restated on restricted generators (its p-cycle step stated
as the groups it must certify, their order taken from sympy), and block
systems by listing every partition into equal cells.
"""

import itertools
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cprforge.cgroup import Sggi
from cprforge.errors import NotTransitive
from cprforge.paper_cases import corpus
from cprforge.perm_core import PermGroup, Permutation
from cprforge.prg import LabeledGraph

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None, suppress_health_check=[HealthCheck.too_slow])


def bfs_classes(n, pairs):
    """Point -> class index (0-based points), by breadth-first search over
    the pairs as undirected edges; classes numbered by least point."""
    adj = {x: set() for x in range(n)}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    cls, count = {}, 0
    for start in range(n):
        if start in cls:
            continue
        cls[start] = idx = count
        count += 1
        frontier = [start]
        while frontier:
            frontier = [y for x in frontier for y in adj[x] if y not in cls]
            for y in frontier:
                cls[y] = idx
    return [cls[x] for x in range(n)]


def classes_to_cells(cls):
    cells = {}
    for x, idx in enumerate(cls):
        cells.setdefault(idx, []).append(x + 1)
    return tuple(tuple(c) for c in cells.values())


# -- graph components --------------------------------------------------------------

def reference_components(g):
    return classes_to_cells(bfs_classes(g.n, [(a - 1, b - 1) for _, a, b in g.edges]))


@st.composite
def random_graphs(draw):
    """n <= 12 and up to four labels, each a random partial matching, so
    isolated vertices and edgeless graphs occur."""
    n = draw(st.integers(0, 12))
    edges = []
    for label in range(draw(st.integers(0, 4))):
        order = draw(st.permutations(range(1, n + 1)))
        k = draw(st.integers(0, n // 2))
        edges += [(label, order[2 * i], order[2 * i + 1]) for i in range(k)]
    return LabeledGraph(n, edges)


def test_components_match_bfs_on_corpus():
    for name, g in corpus():
        assert g.components() == reference_components(g), name
        for label in g.labels:
            rest = g.restrict_labels(set(g.labels) - {label})
            assert rest.components() == reference_components(rest), (name, label)


def test_components_of_empty_and_edgeless_graphs():
    assert LabeledGraph(0, []).components() == ()
    assert LabeledGraph(3, []).components() == ((1,), (2,), (3,))
    assert LabeledGraph(5, [(0, 2, 5), (1, 5, 4)]).components() == ((1,), (2, 4, 5), (3,))


@SETTINGS
@given(random_graphs())
def test_components_match_bfs_on_random_graphs(g):
    assert g.components() == reference_components(g)


# -- the symmetric-product certificate -------------------------------------------

def moved_pairs(gens):
    return [(x, y) for g in gens for x, y in enumerate(g._img) if x != y]


def parent_certified(prefix_gens, new_gens, n):
    """The certificate as stated before orbits came from the union-find:
    every new input maps each transposition component onto itself, and
    each orbit of the prefix lies inside one component."""
    transpositions = [g for g in prefix_gens + new_gens if len(g.support()) == 2]
    tcomp = bfs_classes(n, moved_pairs(transpositions))
    if not all(tcomp[g._img[x]] == tcomp[x] for g in new_gens for x in range(n)):
        return False
    if not prefix_gens:
        return True
    orbit = bfs_classes(n, moved_pairs(prefix_gens))
    return all(tcomp[x] == tcomp[y] for x in range(n) for y in range(n)
               if orbit[x] == orbit[y])


def sym_product_order(gens, n):
    return math.prod(math.factorial(len(c))
                     for c in classes_to_cells(bfs_classes(n, moved_pairs(gens))))


def is_odd(g):
    """Parity by counting inversions of the image sequence."""
    img = g._img
    return sum(img[x] > img[y] for x in range(len(img))
               for y in range(x + 1, len(img))) % 2 == 1


def restricted(g, orbit):
    """The permutation that g induces on the 0-based points ``orbit``."""
    index = {x: i for i, x in enumerate(orbit)}
    return Permutation([index[g._img[x]] + 1 for x in orbit])


def closed_transpositions(gens, orbit):
    """The generators' restrictions to ``orbit`` that are transpositions,
    with every conjugate of them by the generators, as point pairs."""
    found = {tuple(sorted(orbit[i - 1] for i in r.support()))
             for r in (restricted(g, orbit) for g in gens) if len(r.support()) == 2}
    frontier = list(found)
    while frontier:
        frontier = [pair for pair in {tuple(sorted((g._img[a], g._img[b])))
                                      for a, b in frontier for g in gens}
                    if pair not in found]
        found.update(frontier)
    return found


def sign_rank(gens, orbits):
    """The F_2 rank of the generators' sign vectors, one bit per orbit,
    by elimination over rows of 0/1 lists."""
    rows = [[int(is_odd(restricted(g, o))) for o in orbits] for g in gens]
    rank = 0
    for col in range(len(orbits)):
        pivot = next((r for r in rows[rank:] if r[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows = [[a ^ b for a, b in zip(r, pivot)] if r[col] else r for r in rows]
        rows.insert(rank, pivot)
        rank += 1
    return rank


def product_certified(gens, n):
    """The groups the product rule certifies: the sign vectors span F_2^k
    over the k moved orbits, and each orbit is connected by the conjugates
    of the transposition restrictions (such an orbit is exactly settled) or
    has at least 8 points, where the p-cycle step must certify exactly the
    groups whose sympy order is the product of the orbits' factorials."""
    cls = bfs_classes(n, moved_pairs(gens))
    orbits = [[x - 1 for x in c] for c in classes_to_cells(cls) if len(c) > 1]
    if sign_rank(gens, orbits) < len(orbits):
        return False
    split = [o for o in orbits
             if len(set(bfs_classes(n, closed_transpositions(gens, o))[x] for x in o)) > 1]
    if any(len(o) < 8 for o in split):
        return False
    return not split or sympy_order(gens) == sym_product_order(gens, n)


def sympy_order(gens):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    return combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g._img)) for g in gens]).order()


def assert_step_matches(group, prefix_gens, new_gens, n, order):
    gens = prefix_gens + new_gens
    certified = (parent_certified(prefix_gens, new_gens, n)
                 or product_certified(gens, n))
    assert (group._state is None) == certified
    assert group.is_symmetric_orbit_product == (
        certified or order == sym_product_order(gens, n))
    if certified and gens:
        assert sympy_order(gens) == sym_product_order(gens, n)


def test_certificate_matches_parent_rule_on_corpus_sections():
    seen = 0
    for name, g in corpus():
        sggi = Sggi.from_graph(g)
        labels = list(sggi.window.labels())
        built = {}
        for size in range(len(labels) + 1):
            for kept in itertools.combinations(labels, size):
                gens = [sggi.generator(l) for l in kept]
                alone = PermGroup(gens, degree=g.n)
                assert_step_matches(alone, [], gens, g.n, alone.order)
                seen += alone._state is None
                if kept:
                    # extending the section of all labels but the last,
                    # whose chain may or may not have been built
                    grown = PermGroup(gens[-1:], degree=g.n, extends=built[kept[:-1]])
                    assert_step_matches(grown, gens[:-1], gens[-1:], g.n, alone.order)
                    seen += grown._state is None
                built[kept] = alone
    # 810 of the 1,800 groups are certified, 270 of them by the product
    # rule past the transposition test
    assert seen >= 750


@st.composite
def extension_steps(draw):
    """Degree 0-9, up to 8 generators, each a transposition, an involution
    or an arbitrary permutation, and cut points splitting the list into
    extension steps."""
    n = draw(st.integers(0, 9))
    gens = []
    for _ in range(draw(st.integers(0, 8))):
        pts = draw(st.permutations(range(1, n + 1)))
        kind = draw(st.sampled_from(["transposition", "involution", "any"]))
        if n < 2:
            gens.append(Permutation.identity(n))
        elif kind == "transposition":
            gens.append(Permutation.from_cycles(n, [pts[:2]]))
        elif kind == "involution":
            k = draw(st.integers(1, n // 2))
            gens.append(Permutation.from_cycles(
                n, [pts[2 * i:2 * i + 2] for i in range(k)]))
        else:
            gens.append(Permutation(pts))
    cuts = sorted(draw(st.sets(st.integers(0, len(gens)), max_size=4)))
    return n, gens, cuts


@SETTINGS
@given(extension_steps())
def test_certificate_matches_parent_rule_on_extension_steps(drawn):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    n, gens, cuts = drawn
    group, start = None, 0
    for end in [*cuts, len(gens)]:
        group = PermGroup(gens[start:end], degree=n, extends=group)
        if gens[:end] and n:
            order = combinatorics.PermutationGroup(
                [combinatorics.Permutation(list(g._img)) for g in gens[:end]]).order()
        else:
            order = 1
        assert_step_matches(group, gens[:start], gens[start:end], n, order)
        assert group.order == order
        start = end


# -- block systems -----------------------------------------------------------------

def equal_partitions(points, size):
    """Every partition of ``points`` into cells of ``size``, each cell and
    the list of cells ordered by least point."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for others in itertools.combinations(rest, size - 1):
        remaining = [p for p in rest if p not in others]
        for tail in equal_partitions(remaining, size):
            yield [(first, *others)] + tail


def brute_minimal_systems(gens, points):
    """The minimal nontrivial partitions of ``points`` into equal cells that
    every generator maps onto themselves, by block size, then cells."""
    n = len(points)
    invariant = []
    for size in range(2, n):
        if n % size:
            continue
        for cells in equal_partitions(list(points), size):
            cell_of = {p: frozenset(c) for c in cells for p in c}
            if all(frozenset(g(p) for p in c) == cell_of[g(c[0])]
                   for g in gens for c in cells):
                invariant.append(tuple(cells))

    def refines(fine, coarse):
        return all(any(set(f) <= set(c) for c in coarse) for f in fine)

    minimal = [s for s in invariant
               if not any(t != s and refines(t, s) for t in invariant)]
    return sorted(minimal, key=lambda s: (len(s[0]), s))


def reference_systems(gens, n):
    """Per orbit of size >= 2, in orbit order, its minimal systems."""
    orbits = classes_to_cells(bfs_classes(n, moved_pairs(gens)))
    return [s for orbit in orbits if len(orbit) > 1
            for s in brute_minimal_systems(gens, orbit)]


def assert_blocks_match(group, gens, n):
    if not group.is_transitive:
        with pytest.raises(NotTransitive):
            group.minimal_block_systems()
        with pytest.raises(NotTransitive):
            group.is_primitive()
        return
    expected = reference_systems(gens, n)
    assert [s.blocks for s in group.minimal_block_systems()] == expected
    assert group.is_primitive() == (not expected)


@st.composite
def transitive_groups(draw):
    """Degree 1-7: an n-cycle through a random ordering of the points, plus
    either random permutations or permutations preserving the blocks
    {ordering[i] : i = j mod m}, which the n-cycle preserves too."""
    n = draw(st.integers(1, 7))
    order = draw(st.permutations(range(1, n + 1)))
    cycle = Permutation.from_cycles(n, [order] if n > 1 else [])
    sizes = [d for d in range(2, n) if n % d == 0]
    if not sizes or draw(st.booleans()):
        extra = [Permutation(draw(st.permutations(range(1, n + 1))))
                 for _ in range(draw(st.integers(0, 2)))]
        return n, [cycle] + extra
    m = n // draw(st.sampled_from(sizes))
    blocks = [order[j::m] for j in range(m)]
    extra = []
    for _ in range(draw(st.integers(1, 2))):
        target = draw(st.permutations(range(m)))
        img = [0] * n
        for j, block in enumerate(blocks):
            shuffled = draw(st.permutations(blocks[target[j]]))
            for p, q in zip(block, shuffled):
                img[p - 1] = q
        extra.append(Permutation(img))
    return n, [cycle] + extra


@SETTINGS
@given(transitive_groups())
def test_block_systems_match_brute_force_on_transitive_groups(drawn):
    n, gens = drawn
    group = PermGroup(gens, degree=n)
    assert group.is_transitive
    assert_blocks_match(group, gens, n)


def test_block_systems_match_brute_force_on_corpus():
    checked = 0
    for name, g in corpus():
        if g.n > 8:
            continue
        gens = [g.generator_of_label(l) for l in g.labels]
        assert_blocks_match(PermGroup(gens, degree=g.n), gens, g.n)
        checked += 1
    assert checked >= 15


# -- minimal systems: nested systems and the refinement-filter model ----------------

def reference_minimal_block_systems(group):
    """The minimal systems by the refinement filter the one-rule listing
    replaced: the nontrivial finest systems through point 1, without
    repeats, less each one that another of them refines."""
    n = group.degree
    if n < 2:
        return []
    candidates = []
    imgs = [g._img for g in group.generators]
    for b in range(1, n):
        system = group._finest_block_system_with(imgs, 0, b)
        if 1 < len(system) < n:
            candidates.append(system)
    unique = list(dict.fromkeys(candidates))

    def refines(fine, coarse):
        block_of = {pt: set(cell) for cell in coarse.blocks for pt in cell}
        return all(set(cell) <= block_of[cell[0]] for cell in fine.blocks)

    minimal = [s for s in unique if not any(o != s and refines(o, s) for o in unique)]
    minimal.sort(key=lambda s: (s.block_size, s.blocks))
    return minimal


def rotation_and_reflection(n):
    """The dihedral group of the regular n-gon on its vertices 1..n."""
    return [f"({','.join(map(str, range(1, n + 1)))})",
            "".join(f"({k},{n + 2 - k})" for k in range(2, (n + 1) // 2 + 1))]


# Nested block systems need 1 < a < b < n with a | b | n, so degree 8 at least.
NESTED = {
    # the Sylow 2-subgroup of S8: pairs inside the halves {1..4}, {5..8}
    "sylow2(S8)": (8, ["(1,2)", "(1,3)(2,4)", "(1,5)(2,6)(3,7)(4,8)"], 128,
                   [((1, 2), (3, 4), (5, 6), (7, 8))]),
    # antipodal pairs inside the even and odd halves
    "dihedral(8)": (8, rotation_and_reflection(8), 16,
                    [((1, 5), (2, 6), (3, 7), (4, 8))]),
    # antipodal pairs and triangles, each inside coarser systems
    "dihedral(12)": (12, rotation_and_reflection(12), 24,
                     [tuple((k, k + 6) for k in range(1, 7)),
                      tuple((k, k + 4, k + 8) for k in range(1, 5))]),
    "S2wrS4": (8, ["(1,2)", "(1,3)(2,4)", "(1,3,5,7)(2,4,6,8)"], 384,
               [((1, 2), (3, 4), (5, 6), (7, 8))]),
    "S4wrS2": (8, ["(1,2)", "(1,2,3,4)", "(1,5)(2,6)(3,7)(4,8)"], 1152,
               [((1, 2, 3, 4), (5, 6, 7, 8))]),
}


@pytest.mark.parametrize("name", sorted(NESTED))
def test_nested_block_systems_match_brute_force(name):
    n, cycles, order, minimal = NESTED[name]
    gens = [Permutation.parse(c, n) for c in cycles]
    group = PermGroup(gens, degree=n)
    assert group.is_transitive and group.order == order
    assert_blocks_match(group, gens, n)
    assert [s.blocks for s in group.minimal_block_systems()] == minimal
    assert group.minimal_block_systems() == reference_minimal_block_systems(group)


def test_a_finest_system_through_point_1_need_not_be_minimal():
    """In the Sylow 2-subgroup of S8 the finest system joining points 1
    and 3 is the halves, which the pairs refine."""
    n, cycles, _, _ = NESTED["sylow2(S8)"]
    group = PermGroup([Permutation.parse(c, n) for c in cycles], degree=n)
    imgs = [g._img for g in group.generators]
    assert group._finest_block_system_with(imgs, 0, 2).blocks == (
        (1, 2, 3, 4), (5, 6, 7, 8))
    assert group._finest_block_system_with(imgs, 0, 1).blocks == (
        (1, 2), (3, 4), (5, 6), (7, 8))


@SETTINGS
@given(transitive_groups())
def test_minimal_systems_match_the_filter_model_on_transitive_groups(drawn):
    n, gens = drawn
    group = PermGroup(gens, degree=n)
    assert group.minimal_block_systems() == reference_minimal_block_systems(group)


def transitive_corpus_groups():
    """Each transitive whole group and transitive section of order at most
    50,000 of the corpus, with its name and kept labels."""
    for name, g in corpus():
        sggi = Sggi.from_graph(g)
        labels = list(sggi.window.labels())
        for size in range(1, len(labels) + 1):
            for kept in itertools.combinations(labels, size):
                group = sggi.section(kept)
                if group.is_transitive and group.order <= 50_000:
                    yield name, len(kept) == len(labels), group


def test_minimal_systems_match_the_filter_model_on_corpus_sections():
    wholes = sections = 0
    for name, whole, group in transitive_corpus_groups():
        assert group.minimal_block_systems() == reference_minimal_block_systems(
            group), name
        wholes += whole
        sections += not whole
    # deleting a label mostly splits an orbit: 24 whole groups, one section
    assert wholes >= 20 and sections >= 1


def test_fingerprint_primitivity_matches_sympy_on_corpus():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    from cprforge.analysis import fingerprint
    checked = 0
    for name, g in corpus():
        group = Sggi.from_graph(g).group()
        if not group.is_transitive:
            continue
        gens = [combinatorics.Permutation(list(p._img)) for p in
                Sggi.from_graph(g).generators()]
        assert fingerprint(group).primitive == combinatorics.PermutationGroup(
            gens).is_primitive(), name
        checked += 1
    assert checked >= 20
