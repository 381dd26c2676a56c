"""The package's public API: every module's __all__, re-exported."""

from types import ModuleType

import redukt
from redukt import flips, pcgraph, redgraph, rules, strings

MODULES = (strings, redgraph, pcgraph, flips, rules)


def test_package_exports_exactly_the_module_apis():
    public = {
        name
        for name in dir(redukt)
        if not name.startswith("_") and not isinstance(getattr(redukt, name), ModuleType)
    }
    assert public == {name for module in MODULES for name in module.__all__}
    for module in MODULES:
        for name in module.__all__:
            assert getattr(redukt, name) is getattr(module, name), (module.__name__, name)
