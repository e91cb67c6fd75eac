import qcliff


def test_every_public_name_resolves():
    missing = [name for name in qcliff.__all__ if not hasattr(qcliff, name)]
    assert missing == []
    assert len(set(qcliff.__all__)) == len(qcliff.__all__)
