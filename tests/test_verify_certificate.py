"""Failing certificates are re-checked before ``check`` reports them."""

import dataclasses

import pytest

from cprforge import constructions as cons
from cprforge.cgroup import Sggi, verify_certificate
from cprforge.cli import main
from cprforge.perm_core import Permutation


def write(tmp_path, name, graph):
    path = tmp_path / name
    path.write_text(graph.serialize())
    return str(path)


@pytest.mark.parametrize("mode", ["recursive", "full"])
def test_real_certificates_verify(graph_corpus, mode):
    failing = 0
    for _, g in graph_corpus:
        sggi = Sggi.from_graph(g)
        verdict = sggi.is_string_c_group(mode=mode)
        if verdict.certificate is not None and not verdict.certificate.ok:
            failing += 1
            assert verify_certificate(sggi, verdict.certificate)
    assert failing


def corruptions(sggi, cert):
    """One certificate per claim it breaks: the witness leaves <left>,
    leaves <right>, or lies in <meet>."""
    only_left = sggi.generator(min(set(cert.left) - set(cert.right)))
    only_right = sggi.generator(max(set(cert.right) - set(cert.left)))
    inside_meet = Permutation.identity(sggi.degree)
    return {name: dataclasses.replace(cert, witness=w) for name, w in (
        ("outside right", only_left), ("outside left", only_right),
        ("inside meet", inside_meet))}


@pytest.mark.parametrize("claim", ["outside right", "outside left", "inside meet"])
def test_corrupted_certificate_exits_1(tmp_path, monkeypatch, capsys, claim):
    g = cons.family_graph_x(5, 1)
    path = write(tmp_path, "gx.prg", g)
    sggi = Sggi.from_graph(g)
    real = sggi.check_ip_recursive()
    bad = corruptions(sggi, real)[claim]
    assert verify_certificate(sggi, real)
    assert not verify_certificate(sggi, bad)

    monkeypatch.setattr(Sggi, "check_ip_recursive", lambda self, cap=None: bad)
    assert main(["check", path]) == 1
    captured = capsys.readouterr()
    assert "intersection property: FAILS" not in captured.out
    assert "internal error" in captured.err
    assert bad.witness.cycle_string() in captured.err


def test_passing_certificate_is_refused():
    sggi = Sggi.from_graph(cons.simplex(4))
    cert = sggi.check_ip_recursive()
    assert cert.ok
    with pytest.raises(ValueError, match="only a failing certificate"):
        verify_certificate(sggi, cert)
