"""The package's public names."""

import setforge


def test_every_exported_name_resolves_once():
    names = setforge.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(setforge, n)] == []
