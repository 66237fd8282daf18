"""Recipes quoted in the docs must exist: every ``python -m repro.x``
module imports, every ``repro <subcommand>`` is registered in the CLI
parser and every ``make <target>`` is a Makefile target — so deleting
a module, subcommand or target cannot leave a dangling recipe behind."""

import argparse
import importlib
import re
from pathlib import Path

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "Makefile", ".claude/skills/verify/SKILL.md")

#: ``python -m repro.x.y`` and the Makefile's ``$(PY) -m repro.x.y``.
_MODULE = re.compile(r"-m (repro(?:\.\w+)+)")
#: ``python -m repro.cli serve-net`` anywhere, or a backticked
#: ``repro serve-net`` in prose (a bare "repro x" is usually English or
#: an import statement).
_SUBCOMMAND = re.compile(r"(?:-m repro\.cli|`repro) ([a-z][a-z0-9-]*)")
#: Backticked only, for the same reason ("...that make threads...").
_MAKE = re.compile(r"`make ([a-z][a-z0-9-]*)")
_MAKE_TARGET = re.compile(r"^([a-z][a-z0-9-]*):", re.MULTILINE)


def _subcommands() -> set:
    (sub,) = (a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction))
    return set(sub.choices)


def _importable(module: str) -> bool:
    try:
        importlib.import_module(module)
    except ImportError:
        return False
    return True


def dangling(text: str) -> list:
    """Every recipe in ``text`` that points at nothing."""
    targets = set(_MAKE_TARGET.findall((ROOT / "Makefile").read_text()))
    subcommands = _subcommands()
    bad = [f"python -m {m}" for m in sorted(set(_MODULE.findall(text)))
           if not _importable(m)]
    bad += [f"repro {s}" for s in sorted(set(_SUBCOMMAND.findall(text)))
            if s not in subcommands]
    bad += [f"make {t}" for t in sorted(set(_MAKE.findall(text)))
            if t not in targets]
    return bad


def test_docs_quote_only_recipes_that_exist():
    for name in DOCS:
        assert dangling((ROOT / name).read_text()) == [], name


def test_scanner_sees_each_kind_of_recipe():
    """The check above is only as good as its patterns: a made-up
    module, subcommand and target must each be reported, in the forms
    the docs use."""
    text = (
        "run `python -m repro.serving.no_such_module --smoke`,\n"
        "\tPYTHONPATH=src $(PY) -m repro.no_such_driver\n"
        "    python -m repro.cli no-such-cmd --out x.json\n"
        "or `repro no-such-verb` (in `make no-such-target`);\n"
        "`python -m repro.cli serve-net`, `repro metrics` and\n"
        "`make check` are fine, and so is prose that would make threads\n"
        "of repro output."
    )
    assert dangling(text) == [
        "python -m repro.no_such_driver",
        "python -m repro.serving.no_such_module",
        "repro no-such-cmd",
        "repro no-such-verb",
        "make no-such-target",
    ]
