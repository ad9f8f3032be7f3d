import ldovco


def test_every_export_resolves():
    assert [name for name in ldovco.__all__ if not hasattr(ldovco, name)] == []
    assert len(set(ldovco.__all__)) == len(ldovco.__all__)
