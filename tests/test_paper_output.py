"""``cprforge paper`` output is pinned, and its engine self-check bites.

``golden/paper.txt`` is the expected stdout of ``cprforge paper``; a
change to the engine or to the closure oracle must not move it.  The
self-check case must fail when the engine it checks is broken, so each
test below breaks one piece and expects ``ok=False``.
"""

from pathlib import Path

from cprforge import paper_cases, perm_core
from cprforge.cli import main
from cprforge.perm_core import PermGroup

GOLDEN = Path(__file__).parent / "golden" / "paper.txt"


def test_paper_stdout_matches_golden(capsys):
    assert main(["paper"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text(encoding="utf-8")


def test_selfchecks_catch_membership_that_accepts_everything(monkeypatch):
    monkeypatch.setattr(PermGroup, "contains_tuple", lambda self, img: True)
    result = paper_cases.case_engine_selfchecks()
    assert not result.ok
    assert any("membership disagrees" in line for line in result.lines)


def test_selfchecks_catch_a_trivial_intersection(monkeypatch):
    monkeypatch.setattr(paper_cases, "intersection",
                        lambda g, h, *args, **kwargs: PermGroup([], degree=g.degree))
    result = paper_cases.case_engine_selfchecks()
    assert not result.ok
    assert any("intersection order" in line for line in result.lines)


def test_selfchecks_catch_a_chain_order_off_by_one(monkeypatch):
    real_order = perm_core._Chain.order
    monkeypatch.setattr(perm_core._Chain, "order",
                        lambda self: real_order(self) + 1)
    result = paper_cases.case_engine_selfchecks()
    assert not result.ok
    assert any("chain order" in line for line in result.lines)
