"""The package's public surface."""

from __future__ import annotations

import soddy


def test_every_public_name_resolves():
    namespace: dict = {}
    # import * raises AttributeError for a name in __all__ that the package lacks
    exec("from soddy import *", namespace)
    assert set(soddy.__all__) <= namespace.keys()
    assert len(soddy.__all__) == len(set(soddy.__all__))
