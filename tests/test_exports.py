"""Every name a package exports resolves, so deletions leave no dangling
entries in `__all__`."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["envasr", "envasr.asr", "envasr.pipeline"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)
