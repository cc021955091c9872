import aircomp_sia


def test_all_is_unique_and_resolves():
    names = aircomp_sia.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(aircomp_sia, name)]
    assert missing == []
