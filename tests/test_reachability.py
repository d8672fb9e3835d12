"""Tier-1 guard for ``scripts/reachability.py``, the on-demand audit of
which ``src/repro`` functions no entry point runs.  The full audit takes
minutes and runs in its own CI job; the checks here are fast.  The static
ones — one per ``EXPLAINED`` entry and one per entry point — fail here
first when a function the audit explains, or a flag one of its entry
points passes, is renamed.  The rest drive the audit's own machinery
(the AST enumeration, the command splitting, the call probe, the exit
code) on a throwaway package of a few lines.
"""

from __future__ import annotations

import hashlib
import importlib.util
import pathlib
import re
import sys

import pytest

from repro.cli import build_parser
from repro.genome.sequence import random_genome

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load():
    path = ROOT / "scripts" / "reachability.py"
    spec = importlib.util.spec_from_file_location("reachability", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


_AUDIT = _load()


@pytest.fixture(scope="module")
def reachability():
    return _AUDIT


@pytest.fixture(scope="module")
def defined_names(reachability):
    defined = {name for name, _lines in reachability.defined_functions().values()}
    assert defined, "the AST walk found no functions"
    return defined


# -- the EXPLAINED table: one check per entry ---------------------------------


@pytest.mark.parametrize("name", sorted(_AUDIT.EXPLAINED))
def test_explained_function_is_defined_with_a_sound_reason(reachability, defined_names, name):
    reason = reachability.EXPLAINED[name]
    assert name in defined_names, f"{name} is explained but no longer defined"
    category, _, why = reason.partition(": ")
    assert category in reachability.REASONS and why, reason
    # A test file the reason cites exists and names the function (or, for a
    # method, its class): a renamed or deleted test makes the reason stale.
    qualname = name.partition(":")[2].split(".")
    for cited in re.findall(r"tests/\w+\.py", reason):
        path = ROOT / cited
        assert path.is_file(), f"{name}: cites missing {cited}"
        text = path.read_text(encoding="utf-8")
        assert qualname[-1] in text or qualname[0] in text, f"{name}: {cited} never names it"


# -- ENTRY_POINTS: one check per entry point -----------------------------------


def _entry_words(argv: tuple[str, ...]) -> str:
    words = [
        token.rpartition("/")[2] for token in argv
        if not token.startswith("-")
        and (token.endswith(".py") or token.replace("-", "").isalnum())
    ]
    words = [word for word in words if not word.isdigit()] or ["code"]
    return "-".join(words[:2])


def _entry_ids(entry_points) -> list[str]:
    """Each entry point's id from its command alone: its first two words,
    and where two commands share those, a short digest of the argv."""
    words = [_entry_words(argv) for argv in entry_points]
    return [
        f"{word}-{hashlib.sha1(' '.join(argv).encode()).hexdigest()[:6]}"
        if words.count(word) > 1 else word
        for word, argv in zip(words, entry_points)
    ]


def test_entry_point_ids_are_unique_and_do_not_depend_on_order():
    ids = _entry_ids(_AUDIT.ENTRY_POINTS)
    assert len(set(ids)) == len(ids)
    assert _entry_ids(_AUDIT.ENTRY_POINTS[::-1]) == ids[::-1]


@pytest.mark.parametrize(
    "argv",
    _AUDIT.ENTRY_POINTS,
    ids=_entry_ids(_AUDIT.ENTRY_POINTS),
)
def test_entry_point_is_runnable_as_written(reachability, argv):
    env, command = reachability._command(argv, "audit-tmp")
    for variable in env:
        # An environment variable no module reads any more is a stale entry.
        assert any(
            variable in path.read_text(encoding="utf-8")
            for path in (ROOT / "src" / "repro").rglob("*.py")
        ), variable
    head, rest = command[1], command[2:]
    if head == "-m" and rest[0] == "repro.cli":
        build_parser().parse_args(rest[1:])  # argparse exits (SystemExit 2) on a stale flag
    elif head == "-m":
        assert importlib.util.find_spec(rest[0]) is not None, rest[0]
        targets = [token for token in rest[1:] if not token.startswith("-")]
        assert (ROOT / targets[0]).exists(), targets[0]
    elif head == "-c":
        compile(rest[0], "<entry point>", "exec")
    else:
        assert head.endswith(".py") and (ROOT / head).is_file(), head


def test_search_queries_are_what_their_comment_says(reachability):
    """Two substrings of the searched genome — one a multiple of the step
    k=6, one not — and one absent query."""
    genome = random_genome(3000, seed=2)
    present_aligned, present_partial, absent = reachability._QUERIES
    assert present_aligned in genome and len(present_aligned) % 6 == 0
    assert present_partial in genome and len(present_partial) % 6 != 0
    assert absent not in genome


# -- the command splitter ------------------------------------------------------


@pytest.mark.parametrize(
    "argv, env, tail",
    [
        (("-m", "repro.cli", "info"), {}, ["-m", "repro.cli", "info"]),
        (("A=1", "B=x=y", "-c", "pass"), {"A": "1", "B": "x=y"}, ["-c", "pass"]),
        (("-m", "repro.cli", "--json={tmp}/out.json"), {}, ["-m", "repro.cli", "--json=/w/out.json"]),
        (("bench/run.py", "{tmp}"), {}, ["bench/run.py", "/w"]),
    ],
    ids=["plain", "leading-env", "flag-with-equals-is-not-env", "tmp-filled"],
)
def test_command_splits_environment_and_fills_tmp(reachability, argv, env, tail):
    assert reachability._command(argv, "/w") == (env, [sys.executable, *tail])


# -- the AST enumeration, on a package of a few lines --------------------------

_MODULE = '''\
import abc
import functools
import typing
from typing import Protocol, overload


def plain():
    return 1


@functools.lru_cache(maxsize=None)
def decorated():
    return 2


def outer():
    def inner():
        return 3
    return inner


class Widget:
    def method(self):
        return 4

    @abc.abstractmethod
    def abstract(self):
        ...

    @typing.overload
    def over(self, x: int) -> int: ...

    @overload
    def over(self, x: str) -> str: ...

    def over(self, x):
        return x


class Shape(Protocol):
    def area(self) -> float:
        ...
'''


@pytest.fixture
def package(tmp_path, monkeypatch, reachability):
    """A package ``pkg`` under *tmp_path*; the audit pointed at it."""
    root = tmp_path.resolve() / "pkg"
    root.mkdir()
    (root / "__init__.py").write_text("", encoding="utf-8")
    (root / "mod.py").write_text(_MODULE, encoding="utf-8")
    (root / "excluded.py").write_text("def hidden():\n    pass\n", encoding="utf-8")
    monkeypatch.setattr(reachability, "PACKAGE", root)
    monkeypatch.setattr(reachability, "EXCLUDED_MODULES", ("excluded.py",))
    return root


def _by_name(reachability):
    return {
        name: (first, lines)
        for (_path, first), (name, lines) in reachability.defined_functions().items()
    }


def test_enumeration_names_functions_methods_and_nested_functions(reachability, package):
    functions = _by_name(reachability)
    assert functions["mod.py:plain"] == (7, 2)
    assert functions["mod.py:Widget.method"] == (23, 2)
    assert functions["mod.py:outer.inner"] == (17, 2)
    assert functions["mod.py:outer"] == (16, 4)


def test_enumeration_keys_a_decorated_function_on_its_first_decorator(reachability, package):
    assert _by_name(reachability)["mod.py:decorated"] == (11, 3)


def test_enumeration_skips_abstract_overload_and_protocol_stubs(reachability, package):
    functions = _by_name(reachability)
    assert "mod.py:Widget.abstract" not in functions
    assert not [name for name in functions if name.startswith("mod.py:Shape")]
    overloads = [
        (name, first)
        for (_path, first), (name, _lines) in reachability.defined_functions().items()
        if name.endswith(".over")
    ]
    assert overloads == [("mod.py:Widget.over", 36)]  # the implementation only


def test_enumeration_leaves_out_excluded_modules(reachability, package):
    assert not [name for name in _by_name(reachability) if name.startswith("excluded.py")]


# -- the probe, on the same package --------------------------------------------


def _run(reachability, package, tmp_path, *codes):
    """Run ``python -c CODE`` per *codes* under the probe, with ``pkg``
    importable; the audited names each call reached."""
    prelude = f"import sys; sys.path.insert(0, {str(package.parent)!r}); import pkg.mod as m; "
    work = tmp_path / "work"
    work.mkdir()
    seen = reachability.run_entry_points(
        [("-c", prelude + code) for code in codes], work
    )
    names = {key: name for key, (name, _lines) in reachability.defined_functions().items()}
    return {names[key] for key in seen if key in names}


def test_probe_records_exactly_the_functions_called(reachability, package, tmp_path):
    reached = _run(reachability, package, tmp_path, "m.plain(); m.outer()(); m.Widget().method()")
    assert reached == {"mod.py:plain", "mod.py:outer", "mod.py:outer.inner", "mod.py:Widget.method"}


def test_probe_reports_a_process_that_leaves_through_os_exit(reachability, package, tmp_path):
    reached = _run(reachability, package, tmp_path, "m.plain(); import os; os._exit(0)")
    assert reached == {"mod.py:plain"}


def test_probe_unions_what_every_entry_point_reached(reachability, package, tmp_path):
    reached = _run(reachability, package, tmp_path, "m.plain()", "m.decorated()")
    assert reached == {"mod.py:plain", "mod.py:decorated"}


def test_a_failing_entry_point_stops_the_audit_with_exit_2(reachability, package, tmp_path, capsys):
    work = tmp_path / "work"
    work.mkdir()
    with pytest.raises(SystemExit) as excinfo:
        reachability.run_entry_points([("-c", "raise SystemExit(3)")], work)
    assert excinfo.value.code == 2
    assert "entry point failed (exit 3)" in capsys.readouterr().err


def test_entry_point_environment_reaches_the_interpreter(reachability, package, tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    code = "import os, sys; sys.exit(os.environ.get('AUDIT_PROBE') != 'on')"
    reachability.run_entry_points([("AUDIT_PROBE=on", "-c", code)], work)  # exit 2 if unset


# -- the verdict ---------------------------------------------------------------


@pytest.mark.parametrize(
    "explained, expected",
    [({}, 1), ({"mod.py:outer.inner": "oracle: why"}, 0)],
    ids=["unexplained-fails", "explained-passes"],
)
def test_exit_code_turns_on_unexplained_unreached_functions(
    reachability, package, monkeypatch, capsys, explained, expected
):
    functions = reachability.defined_functions()
    reached = {key for key, (name, _) in functions.items() if name != "mod.py:outer.inner"}
    monkeypatch.setattr(reachability, "ENTRY_POINTS", ())
    monkeypatch.setattr(reachability, "run_entry_points", lambda entry_points, work: reached)
    monkeypatch.setattr(reachability, "EXPLAINED", explained)
    assert reachability.main() == expected
    out = capsys.readouterr().out
    assert ("UNREACHED: mod.py:outer.inner" in out) == (expected == 1)
