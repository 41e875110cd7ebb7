"""Every ``repro`` module imports, and every name in its ``__all__`` exists.

No other test star-imports a package, so a name left in an export list
after its definition is deleted would otherwise go unseen until a user
tripped on it.
"""

import pkgutil

import repro


def test_every_export_resolves():
    modules = ["repro"] + sorted(
        info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    )
    assert {"repro.core", "repro.des", "repro.sim", "repro.traffic"} <= set(modules)
    stale = {}
    for name in modules:
        # A star import raises AttributeError for any name in __all__ that
        # the module (or, for a package, a submodule of that name) lacks.
        try:
            exec(f"from {name} import *", {})
        except AttributeError as exc:
            stale[name] = str(exc)
    assert stale == {}
