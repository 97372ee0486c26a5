"""The reachability check (``tests/reachability.py``) on a synthetic module:
it flags an uncalled function, nested and decorated ones included, and an
allowlist entry that is reached or names nothing, and passes a clean module."""

import importlib.util
import textwrap

from reachability import check, definitions, profile

CLEAN = textwrap.dedent('''
    import functools


    def outer():
        def inner():
            return 1

        return inner()


    @functools.lru_cache(maxsize=None)
    def cached(x):
        return x


    class Box:
        @property
        def size(self):
            return 2

        def method(self):
            return 3


    def excused():
        return 4
''')

PLANTED = CLEAN.replace("    return inner()", """    def planted_nested():
        return 5

    return inner()""") + textwrap.dedent('''

    @functools.lru_cache(maxsize=None)
    def planted_decorated(x):
        return x


    def planted():
        return 6
''')

ALLOW = {"synth.excused": "reached by no run, on purpose"}


def _problems(tmp_path, source, allowlist, call_excused=False):
    """(kind, name) of each problem ``check`` finds in ``source`` after a
    run that calls outer, cached and both of Box's functions."""
    path = tmp_path / "synth.py"
    path.write_text(source)
    spec = importlib.util.spec_from_file_location("synth", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def run():
        box = module.Box()
        assert module.outer() + module.cached(0) + box.size + box.method() == 6
        if call_excused:
            module.excused()

    return [tuple(p.split(" (")[0].rsplit(": ", 1)) for p in check({"synth": path}, profile(run), allowlist)]


def test_every_definition_is_named_with_its_scope(tmp_path):
    path = tmp_path / "synth.py"
    path.write_text(PLANTED)
    assert sorted(definitions(path, "synth").values()) == [
        "synth.Box.method", "synth.Box.size", "synth.cached", "synth.excused", "synth.outer",
        "synth.outer.inner", "synth.outer.planted_nested", "synth.planted", "synth.planted_decorated",
    ]


def test_a_clean_module_passes(tmp_path):
    assert _problems(tmp_path, CLEAN, ALLOW) == []


def test_uncalled_definitions_are_flagged_nested_and_decorated_ones_too(tmp_path):
    assert _problems(tmp_path, PLANTED, ALLOW) == [
        ("unreached", "synth.outer.planted_nested"),
        ("unreached", "synth.planted_decorated"),
        ("unreached", "synth.planted"),
    ]


def test_a_reached_or_stale_allowlist_entry_fails(tmp_path):
    assert _problems(tmp_path, CLEAN, {**ALLOW, "synth.gone": "removed"}, call_excused=True) == [
        ("allowlisted but reached", "synth.excused"),
        ("allowlisted but not defined", "synth.gone"),
    ]
