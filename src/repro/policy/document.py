"""Declarative per-tenant serving policy documents.

A policy document is plain YAML or JSON describing *intent* — who the
tenants are, what quality they must not fall below and what share of
the server they are entitled to::

    version: 1
    default_tenant: general
    tenants:
      - name: emergency
        weight: 4
        min_psnr_db: 36.0
        max_deadline_miss_rate: 0.01
        max_rungs: 3
      - name: general
        weight: 2
      - name: archive
        weight: 1
        max_rungs: 1

Nothing in here is executable — the document is *compiled* into
concrete knobs (admission weights, degradation caps, ladder caps) by
:mod:`repro.policy.compiler`.

Validation is strict and errors are actionable: every
:class:`PolicyError` names the offending key path
(``tenants[2].max_degradation``), what was found, and what would have
been accepted — mirroring the style of the thread-backend executor errors.
Unknown keys are rejected (a typo must not silently disable a QoS
floor) with a did-you-mean suggestion, and so are numbers that are not
finite (JSON's ``NaN``/``Infinity``, YAML's ``.nan``/``.inf``): a NaN
compares false against every bound, so it would lift a floor or an
entitlement without a word.
"""

from __future__ import annotations

import difflib
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "PolicyDocument",
    "PolicyError",
    "TenantSpec",
    "load_policy_file",
    "parse_policy",
]

#: Degradation-ladder rung names accepted by ``max_degradation``
#: (values of :class:`repro.resilience.degradation.DegradationLevel`).
DEGRADATION_NAMES = ("none", "qp_bump", "window_shrink", "tile_merge",
                    "frame_drop")


class PolicyError(ValueError):
    """A policy document failed validation.

    ``path`` names the offending key (``tenants[1].weight``); the
    message always states what was found and what is accepted.
    """

    def __init__(self, path: str, message: str,
                 source: Optional[str] = None):
        self.path = path
        self.source = source
        where = f"{source}: " if source else ""
        super().__init__(f"{where}{path}: {message}")


def _suggest(key: str, known: Sequence[str]) -> str:
    close = difflib.get_close_matches(key, known, n=1)
    hint = f" (did you mean {close[0]!r}?)" if close else ""
    return f"unknown key{hint}; accepted keys: {', '.join(sorted(known))}"


def _require_mapping(obj: object, path: str, source: Optional[str]) -> Mapping:
    if not isinstance(obj, Mapping):
        raise PolicyError(
            path, f"expected a mapping, got {type(obj).__name__}", source
        )
    return obj


def _check_keys(obj: Mapping, allowed: Sequence[str], path: str,
                source: Optional[str]) -> None:
    for key in obj:
        if key not in allowed:
            raise PolicyError(
                f"{path}.{key}" if path else str(key),
                _suggest(str(key), allowed), source,
            )


def _number(obj: Mapping, key: str, path: str, source: Optional[str],
            default: Optional[float] = None,
            minimum: Optional[float] = None,
            maximum: Optional[float] = None,
            allow_none: bool = False) -> Optional[float]:
    if key not in obj or obj[key] is None:
        if key in obj and obj[key] is None and allow_none:
            return None
        if key not in obj:
            return default
        raise PolicyError(f"{path}.{key}", "must not be null", source)
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise PolicyError(
            f"{path}.{key}",
            f"expected a number, got {value!r}", source,
        )
    try:
        value = float(value)
    except OverflowError:  # an int past the float range
        value = math.inf
    if not math.isfinite(value):
        raise PolicyError(
            f"{path}.{key}",
            f"must be a finite number, got {value!r}", source,
        )
    if minimum is not None and value < minimum:
        raise PolicyError(
            f"{path}.{key}",
            f"must be >= {minimum:g}, got {value:g}", source,
        )
    if maximum is not None and value > maximum:
        raise PolicyError(
            f"{path}.{key}",
            f"must be <= {maximum:g}, got {value:g}", source,
        )
    return value


@dataclass(frozen=True)
class TenantSpec:
    """Declared intent for one tenant."""

    name: str
    #: Relative admission weight — the tenant's share of the slot
    #: capacity is ``weight / sum(weights)``.
    weight: float = 1.0
    #: QoS floor: minimum acceptable PSNR.  Compiles into a cap on the
    #: degradation ladder (a stream this tenant owns is never degraded
    #: below its floor).  ``None`` = no floor.
    min_psnr_db: Optional[float] = None
    #: Deadline class: acceptable miss rate.  Compiles into the
    #: escalation aggressiveness of the per-stream ladder.
    max_deadline_miss_rate: float = 0.1
    #: Rendition-ladder entitlement: rungs beyond this are dropped at
    #: admission before any capacity math runs (0 = unlimited).
    max_rungs: int = 0
    #: Hard ceiling of the degradation ladder for this tenant's
    #: streams (name from :data:`DEGRADATION_NAMES`).
    max_degradation: str = "frame_drop"


@dataclass(frozen=True)
class PolicyDocument:
    """A validated policy document (pure data, pre-compilation)."""

    version: int = 1
    default_tenant: str = "default"
    tenants: Tuple[TenantSpec, ...] = ()
    #: Where this document came from (diagnostics only).
    source: Optional[str] = None


_TOP_KEYS = ("version", "default_tenant", "tenants")
_TENANT_KEYS = ("name", "weight", "min_psnr_db",
                "max_deadline_miss_rate", "max_rungs", "max_degradation")


def _parse_tenant(obj: object, path: str,
                  source: Optional[str]) -> TenantSpec:
    obj = _require_mapping(obj, path, source)
    _check_keys(obj, _TENANT_KEYS, path, source)
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise PolicyError(
            f"{path}.name",
            f"every tenant needs a non-empty string name, got {name!r}",
            source,
        )
    max_degradation = obj.get("max_degradation", "frame_drop")
    if max_degradation not in DEGRADATION_NAMES:
        raise PolicyError(
            f"{path}.max_degradation",
            f"unknown ladder rung {max_degradation!r}; accepted rungs "
            f"(mildest first): {', '.join(DEGRADATION_NAMES)}", source,
        )
    weight = _number(obj, "weight", path, source, default=1.0)
    if weight is not None and weight <= 0:
        raise PolicyError(
            f"{path}.weight",
            f"must be > 0, got {weight:g} (a zero-weight tenant could "
            "never be admitted; remove it instead)", source,
        )
    max_rungs = obj.get("max_rungs", 0)
    if isinstance(max_rungs, bool) or not isinstance(max_rungs, int):
        raise PolicyError(
            f"{path}.max_rungs",
            f"expected an integer, got {max_rungs!r}", source,
        )
    if max_rungs < 0:
        raise PolicyError(
            f"{path}.max_rungs",
            f"must be >= 0 (0 = unlimited), got {max_rungs}", source,
        )
    return TenantSpec(
        name=name,
        weight=float(weight),
        min_psnr_db=_number(obj, "min_psnr_db", path, source,
                            default=None, minimum=0.0, allow_none=True),
        max_deadline_miss_rate=_number(
            obj, "max_deadline_miss_rate", path, source,
            default=0.1, minimum=0.0, maximum=1.0,
        ),
        max_rungs=max_rungs,
        max_degradation=max_degradation,
    )


def parse_policy(obj: object, source: Optional[str] = None) -> PolicyDocument:
    """Validate a decoded document into a :class:`PolicyDocument`.

    Raises :class:`PolicyError` with key-path context on any schema
    violation.
    """
    obj = _require_mapping(obj, "<document>", source)
    _check_keys(obj, _TOP_KEYS, "", source)
    version = obj.get("version", 1)
    if not isinstance(version, int) or isinstance(version, bool):
        raise PolicyError(
            "version", f"expected an integer, got {version!r}", source
        )
    if version != 1:
        raise PolicyError(
            "version",
            f"unsupported policy version {version}; this build "
            "understands version 1", source,
        )
    tenants_obj = obj.get("tenants")
    if not isinstance(tenants_obj, (list, tuple)) or not tenants_obj:
        raise PolicyError(
            "tenants",
            "expected a non-empty list of tenant mappings "
            f"(got {type(tenants_obj).__name__})", source,
        )
    tenants: List[TenantSpec] = []
    seen: Dict[str, int] = {}
    for i, entry in enumerate(tenants_obj):
        spec = _parse_tenant(entry, f"tenants[{i}]", source)
        if spec.name in seen:
            raise PolicyError(
                f"tenants[{i}].name",
                f"duplicate tenant {spec.name!r} "
                f"(first declared at tenants[{seen[spec.name]}])", source,
            )
        seen[spec.name] = i
        tenants.append(spec)

    default_tenant = obj.get("default_tenant", tenants[0].name)
    if not isinstance(default_tenant, str):
        raise PolicyError(
            "default_tenant",
            f"expected a tenant name, got {default_tenant!r}", source,
        )
    if default_tenant not in seen:
        raise PolicyError(
            "default_tenant",
            f"references unknown tenant {default_tenant!r}; declared "
            f"tenants: {', '.join(seen)}", source,
        )

    return PolicyDocument(
        version=version,
        default_tenant=default_tenant,
        tenants=tuple(tenants),
        source=source,
    )


def load_policy_file(path: str, fileops=None) -> PolicyDocument:
    """Load and validate a YAML or JSON policy file.

    Format is chosen by extension (``.json`` = JSON, anything else
    tries YAML first and falls back to JSON when PyYAML is absent —
    JSON is a YAML subset, so ``.yaml`` documents written as JSON still
    load on a bare toolchain).  Syntax errors surface with the parser's
    line/column context.

    ``fileops`` is the injectable filesystem seam of
    :mod:`repro.storage.faultfs` (``None`` = real filesystem); a
    failing read surfaces as a typed ``OSError`` subclass, which
    refuses to start the server that asked for the policy.
    """
    if fileops is not None:
        text = fileops.read_bytes(path, point="policy.read").decode("utf-8")
    else:
        with open(path) as fh:
            text = fh.read()
    if path.endswith(".json"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PolicyError(
                f"line {exc.lineno}, column {exc.colno}",
                f"invalid JSON: {exc.msg}", path,
            ) from exc
    else:
        try:
            import yaml
        except ImportError:  # pragma: no cover - exercised on bare images
            try:
                obj = json.loads(text)
            except json.JSONDecodeError as exc:
                raise PolicyError(
                    f"line {exc.lineno}, column {exc.colno}",
                    "PyYAML is not installed and the document is not "
                    f"valid JSON either: {exc.msg}", path,
                ) from exc
        else:
            try:
                obj = yaml.safe_load(text)
            except yaml.YAMLError as exc:
                mark = getattr(exc, "problem_mark", None)
                where = (f"line {mark.line + 1}, column {mark.column + 1}"
                         if mark else "<stream>")
                problem = getattr(exc, "problem", None) or str(exc)
                raise PolicyError(where, f"invalid YAML: {problem}",
                                  path) from exc
    return parse_policy(obj, source=path)
