"""The package's public API: every module's __all__, re-exported, and one
symbol test at every entry that looks a symbol up, and no import from
outside the standard library."""

import ast
import sys
from pathlib import Path
from types import ModuleType

import pytest

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


def test_package_imports_only_the_standard_library():
    sources = sorted((Path(__file__).parents[1] / "src" / "redukt").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


U = redukt.parse_legal_string("2 3 2 3")
G = redukt.build_reduction_graph(U)
E = redukt.build_extended_reduction_graph(U)
BRIDGE = redukt.pc_from_json({"nodes": ["A", "B"], "edges": [{"label": 2, "ends": ["A", "B"]}]})
SYMBOL_LOOKUPS = {
    "apply_snr": lambda p: redukt.apply_snr(redukt.parse_legal_string("2 2"), p),
    "apply_spr": lambda p: redukt.apply_spr(redukt.parse_legal_string("2 -2"), p),
    "apply_dspr": lambda p: redukt.apply_dspr(U, p),
    "apply_sdr": lambda p: redukt.apply_sdr(U, p, 3),
    "apply_dsdr": lambda p: redukt.apply_dsdr(redukt.parse_legal_string("2 3 -2 -3"), p, 3),
    "is_positive": lambda p: redukt.is_positive(U, p),
    "p_interval": lambda p: redukt.p_interval(U, p),
    "overlap": lambda p: redukt.overlap(U, p, 3),
    "desire_partition": lambda p: redukt.desire_partition(G, p),
    "pointer_sign": lambda p: redukt.pointer_sign(E, p),
    "flip": lambda p: redukt.flip(G, E.merge, p),
    "flip_set": lambda p: redukt.flip_set(G, E.merge, [p]),
    "merge_rule": lambda p: redukt.merge_rule(BRIDGE, p),
}


def _error(call, p):
    try:
        call(p)
    except Exception as exc:  # the error itself is the result compared
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("name", SYMBOL_LOOKUPS)
def test_non_symbol_gets_the_absent_symbol_error(name):
    # 2.0 hashes and compares equal to the symbol 2, which every call has
    call = SYMBOL_LOOKUPS[name]
    absent = _error(call, 99)
    assert absent is not None
    assert _error(call, 2.0) == (absent[0], absent[1].replace("99", "2.0"))
