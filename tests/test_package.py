"""The package's lazy public namespace."""

import snvse


def test_every_export_resolves():
    # __getattr__ imports lazily, so a stale _EXPORTS entry fails only when
    # the name is first used; resolve each one here.
    for name in snvse.__all__:
        getattr(snvse, name)
