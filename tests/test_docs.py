"""Recipes quoted in the docs must exist: every ``python -m repro.x``
module imports, every ``repro <subcommand>`` is registered in the CLI
parser with every ``--flag`` its recipe passes, every ``make <target>``
is a Makefile target and every ``REPRO_*`` variable is read from the
environment somewhere under ``src/repro`` — so deleting a module,
subcommand, flag, target or knob cannot leave a dangling recipe
behind.  Likewise every ``examples/`` / ``tests/`` / ``benchmarks/`` /
``src/repro/`` source file a document names exists (there is no
``benchmarks/`` any more, so a document naming one of its files fails),
and every name an example imports from ``repro`` resolves: tier-1 runs
no example, so a deletion could otherwise break one silently."""

import argparse
import ast
import importlib
import re
from pathlib import Path

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "Makefile", ".claude/skills/verify/SKILL.md")
#: Where quoted source paths are checked too (EXPERIMENTS.md quotes no
#: recipe the scanner above would understand).
PATH_DOCS = DOCS + ("EXPERIMENTS.md",)

#: ``python -m repro.x.y`` and the Makefile's ``$(PY) -m repro.x.y``.
_MODULE = re.compile(r"-m (repro(?:\.\w+)+)")
#: ``python -m repro.cli serve-net`` anywhere, or a backticked
#: ``repro serve-net`` in prose (a bare "repro x" is usually English or
#: an import statement).  The second group is the rest of the recipe:
#: up to the closing backtick or the end of the (continued) line.
_SUBCOMMAND = re.compile(
    r"(?:-m repro\.cli|`repro) ([a-z][a-z0-9-]*)((?:\\\n|[^`\n])*)")
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
#: An environment knob, quoted anywhere; and how ``src/repro`` reads one.
_ENV = re.compile(r"\bREPRO_[A-Z_]*[A-Z]\b")
_ENV_READ = re.compile(
    r"""(?:environ(?:\.get\(|\[)|getenv\()\s*["'](REPRO_[A-Z_]+)["']""")
#: Backticked only, for the same reason ("...that make threads...").
_MAKE = re.compile(r"`make\s+([a-z][a-z0-9-]*)")
_MAKE_TARGET = re.compile(r"^([a-z][a-z0-9-]*):", re.MULTILINE)
#: A source file named from the repository root (not ``bench/tests/x.py``
#: read as ``tests/x.py``, not a ``tests/test_*.py`` glob).
_SOURCE_PATH = re.compile(
    r"(?<![\w/*.-])((?:examples|tests|benchmarks|src/repro)/[\w/]*\w\.(?:py|c))\b")


def _subcommands() -> dict:
    """Each CLI subcommand with the option strings its parser defines."""
    (sub,) = (a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction))
    return {name: set(parser._option_string_actions)
            for name, parser in sub.choices.items()}


def _env_knobs() -> set:
    """Every ``REPRO_*`` variable some file under ``src/repro`` reads."""
    return {name for path in (ROOT / "src" / "repro").rglob("*.py")
            for name in _ENV_READ.findall(path.read_text())}


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
    recipes = _SUBCOMMAND.findall(text)
    bad += [f"repro {s}" for s in sorted({s for s, _ in recipes})
            if s not in subcommands]
    bad += sorted({f"repro {s} {flag}" for s, rest in recipes
                   if s in subcommands for flag in _FLAG.findall(rest)
                   if flag not in subcommands[s]})
    bad += [f"make {t}" for t in sorted(set(_MAKE.findall(text)))
            if t not in targets]
    knobs = _env_knobs()
    bad += [f"env {v}" for v in sorted(set(_ENV.findall(text)))
            if v not in knobs]
    return bad


def missing_paths(text: str) -> list:
    """Every quoted source path in ``text`` that is not a file."""
    return sorted({p for p in _SOURCE_PATH.findall(text)
                   if not (ROOT / p).is_file()})


def unresolved_imports(source: str) -> list:
    """Every ``from repro... import name`` / ``import repro...`` in
    ``source`` that does not resolve."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            bad += [f"import {a.name}" for a in node.names
                    if a.name.split(".")[0] == "repro"
                    and not _importable(a.name)]
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
                and (node.module or "").split(".")[0] == "repro"):
            if not _importable(node.module):
                bad.append(f"from {node.module} import ...")
                continue
            module = importlib.import_module(node.module)
            bad += [f"from {node.module} import {a.name}" for a in node.names
                    if not hasattr(module, a.name)
                    and not _importable(f"{node.module}.{a.name}")]
    return bad


def test_docs_quote_only_recipes_that_exist():
    for name in DOCS:
        assert dangling((ROOT / name).read_text()) == [], name


def test_docs_quote_only_source_files_that_exist():
    for name in PATH_DOCS:
        assert missing_paths((ROOT / name).read_text()) == [], name


def test_examples_import_only_what_exists():
    scripts = sorted((ROOT / "examples").glob("*.py"))
    assert scripts
    for script in scripts:
        assert unresolved_imports(script.read_text()) == [], script.name


def test_scanner_sees_each_kind_of_recipe():
    """The check above is only as good as its patterns: a made-up
    module, subcommand, flag, target and environment knob must each be
    reported, in the forms the docs use."""
    text = (
        "run `python -m repro.serving.no_such_module --smoke`,\n"
        "\tPYTHONPATH=src $(PY) -m repro.no_such_driver\n"
        "    python -m repro.cli no-such-cmd --out x.json\n"
        "or `repro no-such-verb` (in `make no-such-target`);\n"
        "`repro serve-net --port 0 --no-such-flag x` and\n"
        "\tPYTHONPATH=src $(PY) -m repro.cli serve --videos 2 \\\n"
        "\t\t--no-such-option 8\n"
        "pass flags nothing defines; `REPRO_NO_SUCH_KNOB=0` is read by\n"
        "nothing.  `python -m repro.cli serve-net --port 0`,\n"
        "`repro metrics` --not-part-of-the-recipe, `REPRO_NATIVE=0` and\n"
        "`make check` are fine, and so is prose that would make threads\n"
        "of repro output."
    )
    assert dangling(text) == [
        "python -m repro.no_such_driver",
        "python -m repro.serving.no_such_module",
        "repro no-such-cmd",
        "repro no-such-verb",
        "repro serve --no-such-option",
        "repro serve-net --no-such-flag",
        "make no-such-target",
        "env REPRO_NO_SUCH_KNOB",
    ]
    # A backticked recipe wrapped onto the next line is still a recipe.
    assert dangling("`make\nno-such`") == ["make no-such"]
    assert missing_paths(
        "see `tests/test_no_such.py`, src/repro/codec/no_such.py and\n"
        "\t\ttests/test_docs.py \\\n (`bench/tests/test_client.py`, "
        "`tests/test_*.py`, src/repro/native/kernels.c are fine)"
    ) == ["src/repro/codec/no_such.py", "tests/test_no_such.py"]
    assert unresolved_imports(
        "import repro.no_such\nimport os\n"
        "from repro.codec import FrameEncoder, NoSuchCodec\n"
        "from repro.no_such_pkg import x\nfrom repro import native\n"
    ) == ["import repro.no_such", "from repro.codec import NoSuchCodec",
          "from repro.no_such_pkg import ..."]
