"""Every symbol ``kernels.c`` exports must earn its place: it is bound
(``argtypes``/``restype``) in ``native._load`` and called from product
code under ``src/repro`` — directly, or through a wrapper in
``repro.native`` that product code calls.  An export nothing reaches is
dead C that still has to be compiled, sanitised and kept bit-exact."""

import inspect
import re
from pathlib import Path

from repro import native

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: A function definition at column 0 that is not ``static`` (the
#: ``static`` ones, including those under an ``__attribute__`` line,
#: are the driver's private building blocks).
_EXPORT = re.compile(
    r"^(?!static\b|typedef\b)[A-Za-z_][\w \*]*?\b([A-Za-z_]\w*)\(",
    re.MULTILINE,
)


#: Top-level functions and classes of ``repro.native``, body included.
_NATIVE_DEF = re.compile(r"^(?:def|class) (\w+)\b.*?(?=^(?:def|class) |\Z)",
                         re.MULTILINE | re.DOTALL)


def unreached(exports, binding_block: str, sources: dict) -> list:
    """Exports that are unbound, or that no product code ends up calling."""
    init = SRC / "native" / "__init__.py"
    native_src = sources[init].replace(binding_block, "")
    elsewhere = "\n".join(t for p, t in sources.items() if p != init)
    bad = []
    for name in exports:
        if not all(f"cdll.{name}.{attr} =" in binding_block
                   for attr in ("argtypes", "restype")):
            bad.append(f"{name}: not bound in native._load")
            continue
        # Called on the handle from another module, or from a function
        # (or a class) of repro.native that something besides its own
        # definition calls.
        wrappers = [m.group(1) for m in _NATIVE_DEF.finditer(native_src)
                    if re.search(rf"\b(?:lib|cdll)\.{name}\(", m.group(0))]
        if not (re.search(rf"\blib\.{name}\b", elsewhere) or any(
            re.search(rf"(?:(?<![\w.])(?<!def )|\bnative\.){fn}\(",
                      native_src + elsewhere)
            for fn in wrappers
        )):
            bad.append(f"{name}: no caller under src/repro")
    return bad


def _sources() -> dict:
    return {path: path.read_text() for path in SRC.rglob("*.py")}


def test_every_export_is_bound_and_reached():
    exports = _EXPORT.findall((SRC / "native" / "kernels.c").read_text())
    # The whole list, pinned: a new export is a new configuration for
    # `make sanitize` / `make reference` to hold bit-exact.
    assert set(exports) == {"encode_frame_u8", "analyze_frame_u8",
                            "downscale_box_u8"}
    assert unreached(exports, inspect.getsource(native._load), _sources()) == []


def test_table_row_widths_agree_with_kernels_c():
    """The tile table is one memory layout written on two sides: the
    ``#define``s ``encode_frame_u8`` strides by and the widths
    ``TileTable`` allocates.  Pinned, so a column cannot be added on
    one side only."""
    defines = dict(re.findall(
        r"^#define (ROW_I|ROW_D|OUT_I|OUT_D) (\d+)$",
        (SRC / "native" / "kernels.c").read_text(), re.MULTILINE))
    assert {k: int(v) for k, v in defines.items()} == {
        "ROW_I": 14, "ROW_D": 2, "OUT_I": 9, "OUT_D": 4}
    assert (native._ROW_INTS, native._ROW_DOUBLES, native._OUT_INTS,
            native._OUT_DOUBLES) == (14, 2, 9, 4)


def test_audit_reports_a_dead_and_an_unbound_export():
    """The audit is only as good as its patterns: an export with a
    wrapper nothing calls, and one never bound, must both be reported."""
    binding = inspect.getsource(native._load)
    sources = _sources()
    init = SRC / "native" / "__init__.py"
    sources[init] += (
        "\ndef orphan_wrapper(x):\n    return lib.orphan_u8(x)\n"
    )
    binding_plus = binding + (
        "    cdll.orphan_u8.argtypes = []\n    cdll.orphan_u8.restype = None\n"
    )
    sources[init] = sources[init].replace(binding, binding_plus)
    assert _EXPORT.findall(
        "int orphan_u8(void)\n{\n}\nstatic int hidden(void)\n"
        "void stray_u8(int x)\n") == ["orphan_u8", "stray_u8"]
    assert unreached(["orphan_u8", "stray_u8", "encode_frame_u8"],
                     binding_plus, sources) == [
        "orphan_u8: no caller under src/repro",
        "stray_u8: not bound in native._load",
    ]
