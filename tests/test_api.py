import symbio


def test_public_names_resolve():
    names = symbio.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(symbio, name), name
