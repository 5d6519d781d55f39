"""The layer table covers every module under src/repro exactly once."""

from ledger import layers, spec
from ledger.harness import SRC


def _modules() -> list[str]:
    found = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = layers.module_of(str(path), SRC)
        assert module is not None and module.startswith("repro")
        found.append(module)
    return found


def test_every_module_resolves_through_exactly_one_table_entry():
    modules = _modules()
    assert len(modules) == len(set(modules)) > 100
    for module in modules:
        prefixes = [key for key in layers.LAYER_OF
                    if module == key or module.startswith(key + ".")]
        assert prefixes, f"{module} has no layer"
        # Longest prefix wins, and it is unique: that is the one entry.
        longest = max(prefixes, key=len)
        assert [p for p in prefixes if len(p) == len(longest)] == [longest]
        assert layers.layer_of(module) == layers.LAYER_OF[longest]


def test_no_table_entry_is_stale():
    modules = set(_modules())
    for key in layers.LAYER_OF:
        assert key in modules, f"{key} names no module or package"


def test_every_reported_self_time_layer_has_a_module():
    reachable = {layers.layer_of(m) for m in _modules()}
    for layer in spec.DES_SELF_LAYERS + spec.LIVE_SELF_LAYERS:
        assert layer in reachable
    assert layers.OTHER in reachable


def test_code_outside_repro_is_other():
    assert layers.module_of("/usr/lib/python3/heapq.py", SRC) is None
    assert layers.module_of("~", SRC) is None
    assert layers.layer_of(None) == layers.OTHER
    assert layers.fold({"a": 1.0, "b": 2.0, "c": 4.0}, ("a",)) == {
        "a": 1.0, layers.OTHER: 6.0}
