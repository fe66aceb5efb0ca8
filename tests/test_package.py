"""The package's export list."""

import dynconn


def test_every_exported_name_resolves():
    missing = [name for name in dynconn.__all__ if not hasattr(dynconn, name)]
    assert missing == []
    assert len(set(dynconn.__all__)) == len(dynconn.__all__)
