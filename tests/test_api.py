"""The public API: every name ctalign.__all__ lists resolves, so a star
import binds exactly those names."""

import ctalign


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ctalign import *", namespace)
    del namespace["__builtins__"]
    assert len(set(ctalign.__all__)) == len(ctalign.__all__)
    assert sorted(namespace) == sorted(ctalign.__all__)
