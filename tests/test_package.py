"""The package's public names are its modules' ``__all__``, republished."""

from __future__ import annotations

import tristep
from tristep import cli, config, cpmodel, manufactured, numerics, scheme, studies

MODULES = (config, cpmodel, manufactured, numerics, scheme, studies)


def test_package_all_is_the_union_of_the_modules_all():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))
    assert sorted(tristep.__all__) == sorted(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(tristep, name) is getattr(module, name)


def test_cli_names_are_not_republished():
    assert not set(cli.__all__) & set(tristep.__all__)
    assert not hasattr(tristep, "main")
