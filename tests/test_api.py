"""The package's public API: every module's __all__, re-exported, one
symbol test at every entry that looks a symbol up, no import from outside
the standard library, and the contract of the frozen value classes."""

import ast
import copy
import inspect
import pickle
import subprocess
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


def test_cli_starts_without_dataclasses():
    # -S: no site module, whose .pth files could import dataclasses first
    src = Path(__file__).parents[1] / "src"
    code = "import sys; sys.path.insert(0, sys.argv[1]); import redukt.cli; print('dataclasses' in sys.modules)"
    run = subprocess.run([sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "False\n", "")
    for path in sorted((src / "redukt").glob("*.py")):
        assert "dataclasses" not in path.read_text(encoding="utf-8"), path.name


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


# The frozen value classes: constructor parameters (name, default), then
# two unequal instances, a fresh twin of the first built from its fields,
# and the first one's field tuple.
REQUIRED = inspect.Parameter.empty
U2 = redukt.parse_legal_string("2 2")
G2 = redukt.build_reduction_graph(U2)
SNR, DSPR = redukt.StringRule("snr", (2,)), redukt.DualRule("dspr", (3,))
VALUE_CLASSES = {
    redukt.Pointer: (
        [("symbol", REQUIRED), ("barred", False)],
        lambda: (redukt.Pointer(2), redukt.Pointer(2, True), redukt.Pointer(symbol=2, barred=False), (2, False)),
    ),
    redukt.LegalString: (
        [("letters", REQUIRED)],
        lambda: (U, U2, redukt.LegalString(letters=U.letters), ((2, 3, 2, 3),)),
    ),
    redukt.ColouredBase: (
        [("vertices", REQUIRED), ("s", REQUIRED), ("t", REQUIRED), ("label", REQUIRED)],
        lambda: (G.base, G2.base, redukt.ColouredBase(
            vertices=G.vertices, s="s", t="t", label=dict(G.label)), (G.vertices, "s", "t", G.label)),
    ),
    redukt.ARG: (
        [("base", REQUIRED), ("reality", REQUIRED), ("desire", REQUIRED)],
        lambda: (G, G2, redukt.ARG(base=G.base, reality=G.reality, desire=G.desire), (G.base, G.reality, G.desire)),
    ),
    redukt.ExtendedARG: (
        [("arg", REQUIRED), ("merge", REQUIRED)],
        lambda: (E, redukt.build_extended_reduction_graph(U2), redukt.ExtendedARG(arg=E.arg, merge=E.merge),
                 (E.arg, E.merge)),
    ),
    redukt.CanonicalForm: (
        [("path_word", REQUIRED), ("cycle_words", REQUIRED)],
        lambda: (redukt.canonical_form(G), redukt.canonical_form(G2),
                 redukt.CanonicalForm(path_word=(2, 2, 3, 3, 2, 2, 3, 3), cycle_words=()),
                 ((2, 2, 3, 3, 2, 2, 3, 3), ())),
    ),
    redukt.PointerComponentGraph: (
        [("nodes", REQUIRED), ("endpoints", REQUIRED)],
        lambda: (BRIDGE, redukt.pointer_component_graph(G), redukt.PointerComponentGraph(
            nodes=frozenset("AB"), endpoints={2: frozenset("AB")}), (frozenset("AB"), {2: frozenset("AB")})),
    ),
    rules._Rule: ([("kind", REQUIRED), ("pointers", REQUIRED)], None),
    redukt.StringRule: (
        [("kind", REQUIRED), ("pointers", REQUIRED)],
        lambda: (SNR, redukt.StringRule("sdr", (2, 3)), redukt.StringRule(kind="snr", pointers=(2,)), ("snr", (2,))),
    ),
    redukt.DualRule: (
        [("kind", REQUIRED), ("pointers", REQUIRED)],
        lambda: (DSPR, redukt.DualRule("dsdr", (2, 3)), redukt.DualRule(kind="dspr", pointers=(3,)), ("dspr", (3,))),
    ),
    redukt.RuleSequence: (
        [("rules", REQUIRED)],
        lambda: (redukt.RuleSequence((SNR,)), redukt.RuleSequence(()), redukt.RuleSequence(rules=(SNR,)), ((SNR,),)),
    ),
}
INSTANCES = {cls: make() for cls, (_, make) in VALUE_CLASSES.items() if make is not None}


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_value_class_constructor_parameters(cls):
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == VALUE_CLASSES[cls][0]
    assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}


@pytest.mark.parametrize("cls", INSTANCES, ids=lambda cls: cls.__name__)
def test_value_class_equality_and_hash(cls):
    a, b, twin, fields = INSTANCES[cls]
    assert type(a) is type(b) is type(twin) is cls
    assert a == twin and not a != twin and a is not twin
    assert a != b and not a == b
    assert a != fields and a.__eq__(fields) is NotImplemented
    for other, (x, *_) in INSTANCES.items():
        assert (a == x) is (other is cls), other.__name__
    try:
        hash(fields)
    except TypeError:  # a dict among the fields: the value is unhashable too
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(twin) == hash(fields)


def test_value_class_reprs():
    rule = redukt.StringRule("sdr", (2, 3))
    assert repr(redukt.Pointer(2, True)) == "Pointer(symbol=2, barred=True)"
    assert repr(U2) == "LegalString(letters=(Pointer(symbol=2, barred=False), Pointer(symbol=2, barred=False)))"
    assert repr(redukt.canonical_form(G)) == "CanonicalForm(path_word=(2, 2, 3, 3, 2, 2, 3, 3), cycle_words=())"
    assert repr(rule) == "StringRule(kind='sdr', pointers=(2, 3))"
    assert repr(redukt.RuleSequence((rule, DSPR))) == (
        "RuleSequence(rules=(StringRule(kind='sdr', pointers=(2, 3)), DualRule(kind='dspr', pointers=(3,))))"
    )
    assert repr(redukt.pointer_component_graph(G)) == (
        "PointerComponentGraph(nodes=frozenset({'I1'}), endpoints={2: frozenset({'I1'}), 3: frozenset({'I1'})})"
    )


def test_only_pointers_are_ordered():
    P = redukt.Pointer
    assert sorted([P(3), P(2, True), P(4, True), P(2)]) == [P(2), P(2, True), P(3), P(4, True)]
    assert P(2) < P(2, True) <= P(2, True) and P(3) > P(2, True) >= P(2, True)
    with pytest.raises(TypeError):
        P(2) < (2, True)
    for cls, (a, b, *_) in INSTANCES.items():
        if cls is not P:
            with pytest.raises(TypeError):
                a < b


@pytest.mark.parametrize("cls", INSTANCES, ids=lambda cls: cls.__name__)
def test_value_class_refuses_assignment_and_deletion(cls):
    a, _, twin, _ = INSTANCES[cls]
    names = [p.name for p in inspect.signature(cls).parameters.values()]
    for name in [*names, "_word", "extra"]:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == twin and not hasattr(a, "extra")


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: redukt.Pointer(1), redukt.ParseError, "pointer symbol must be an integer >= 2, got 1"),
        (lambda: redukt.ColouredBase(frozenset("st"), "s", "s", {}), ValueError,
         "s and t must be distinct vertices of the graph"),
        (lambda: redukt.ExtendedARG(G, frozenset(frozenset(e) for e in [
            ("I1", "I3"), ("I1'", "I3'"), ("I2", "I4"), ("I2'", "I4'")])), ValueError,
         "reality and merge edges do not connect the graph"),
        (lambda: redukt.StringRule("dspr", (2,)), ValueError, "unknown rule kind 'dspr'"),
        (lambda: rules._Rule("snr", (2,)), ValueError, "unknown rule kind 'snr'"),
    ],
    ids=["Pointer", "ColouredBase", "ExtendedARG", "StringRule", "_Rule"],
)
def test_value_class_post_init_checks(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("cls", INSTANCES, ids=lambda cls: cls.__name__)
def test_value_class_pickle_and_deepcopy(cls):
    a = INSTANCES[cls][0]
    for twin in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert type(twin) is cls and twin == a


def test_arg_index_cache_is_not_a_field():
    g = redukt.build_reduction_graph(U)
    fresh = redukt.ARG(g.base, g.reality, g.desire)
    assert "_index" in vars(g) and "_index" not in vars(fresh)
    assert g == fresh and repr(g) == repr(fresh) and "_index" not in repr(g)
    assert fresh._index.ids == g._index.ids and g == fresh
