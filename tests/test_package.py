"""The package's public surface."""

import swarmtopo


def test_every_public_name_resolves():
    namespace = {}
    exec("from swarmtopo import *", namespace)  # raises on a name that does not resolve
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(swarmtopo.__all__)
