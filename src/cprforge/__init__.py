"""Permutation representation graphs, string C-group verification and gluing."""

from .cgroup import CprVerdict, IpCertificate, LabelWindow, Sggi
from .perm_core import (
    BlockSystem,
    PermGroup,
    Permutation,
    compose,
    element_order,
    intersection,
    parity,
)
from .prg import LabeledGraph, canonical_form

__version__ = "0.1.0"

__all__ = [
    "BlockSystem",
    "CprVerdict",
    "IpCertificate",
    "LabelWindow",
    "LabeledGraph",
    "PermGroup",
    "Permutation",
    "Sggi",
    "canonical_form",
    "compose",
    "element_order",
    "intersection",
    "parity",
    "__version__",
]
