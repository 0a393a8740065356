import symbio
import symbio.errors


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


def test_public_classes_and_functions_are_symbio_code():
    """No public name re-exports another package's class or function."""
    for name in symbio.__all__:
        obj = getattr(symbio, name)
        if isinstance(obj, type) or callable(obj):
            assert obj.__module__.startswith("symbio"), f"{name} is {obj.__module__}.{obj.__qualname__}"


def test_two_error_types():
    """SymbioError is a ValueError; BoundExceeded is the one kind told apart."""
    assert issubclass(symbio.SymbioError, ValueError)
    assert issubclass(symbio.BoundExceeded, symbio.SymbioError)
    defined = [name for name, obj in vars(symbio.errors).items() if isinstance(obj, type)]
    assert sorted(defined) == ["BoundExceeded", "SymbioError"]
