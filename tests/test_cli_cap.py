"""The intersection cap, set by ``--cap`` alone, must be at least 1."""

import pytest

from cprforge import constructions as cons
from cprforge.cli import main


@pytest.fixture
def simplex4(tmp_path):
    # every node of simplex(4) takes the sym-product fast path, so a bad cap
    # is never consulted by the check itself
    path = tmp_path / "s4.prg"
    path.write_text(cons.simplex(4).serialize())
    return str(path)


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_check_rejects_flag_cap_below_one(simplex4, cap, capsys, monkeypatch):
    monkeypatch.delenv("CPRFORGE_CAP", raising=False)
    assert main(["check", simplex4, f"--cap={cap}"]) == 1
    err = capsys.readouterr().err
    assert f"--cap={cap}" in err and "at least 1" in err


def test_check_accepts_a_flag_cap_of_one(simplex4):
    assert main(["check", simplex4, "--cap", "1"]) == 0
