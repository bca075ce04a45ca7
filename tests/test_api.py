"""The package's public names: ``gen32.__all__`` lists exactly what
``gen32/__init__.py`` exports, so a deleted function cannot linger there."""

from types import ModuleType

import gen32


def test_all_names_resolve_once():
    assert len(gen32.__all__) == len(set(gen32.__all__))
    for name in gen32.__all__:
        assert hasattr(gen32, name), name


def test_every_public_binding_is_listed():
    bound = {
        name
        for name, value in vars(gen32).items()
        if not name.startswith("_") and not isinstance(value, ModuleType) and name != "annotations"
    }
    assert bound == set(gen32.__all__)
