"""The package's public surface: ``from pfc import *`` imports every name
of ``pfc.__all__``, so each must resolve on the package, and once."""

import pfc


def test_every_export_resolves_once():
    assert len(pfc.__all__) == len(set(pfc.__all__))
    assert [name for name in pfc.__all__ if not hasattr(pfc, name)] == []
