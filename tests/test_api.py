import symbio


def test_public_names_resolve():
    names = symbio.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(symbio, name), name


def test_public_names_are_not_aliases():
    """No public name only renames another: each is bound to its own object."""
    by_id = {}
    for name in symbio.__all__:
        other = by_id.setdefault(id(getattr(symbio, name)), name)
        assert other == name, f"{name} is {other}"
