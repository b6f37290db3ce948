"""The package's public surface."""

from __future__ import annotations

import types

import samplex


def test_every_public_name_resolves_to_a_non_module():
    assert len(set(samplex.__all__)) == len(samplex.__all__)
    for name in samplex.__all__:
        assert not isinstance(getattr(samplex, name), types.ModuleType), name
