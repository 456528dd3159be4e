"""The package's public surface: every exported name resolves."""

import cprforge


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from cprforge import *", namespace)
    for name in cprforge.__all__:
        assert name in namespace, name
        assert namespace[name] is getattr(cprforge, name)

