"""Declarative per-tenant policy: documents and their compiler.

The package splits cleanly into two layers:

* :mod:`repro.policy.document` — YAML/JSON grammar, schema validation
  with actionable line/key errors, the frozen :class:`PolicyDocument`.
* :mod:`repro.policy.compiler` — lowering into a
  :class:`CompiledPolicy` of concrete serving knobs (admission shares,
  degradation caps, ladder caps).

A server loads its policy once, at start; a changed file takes a drain
and a restart.
"""

from repro.policy.compiler import CompiledPolicy, TenantRuntime, compile_policy
from repro.policy.document import (
    PolicyDocument,
    PolicyError,
    TenantSpec,
    load_policy_file,
    parse_policy,
)

__all__ = [
    "CompiledPolicy",
    "PolicyDocument",
    "PolicyError",
    "TenantRuntime",
    "TenantSpec",
    "compile_policy",
    "load_policy_file",
    "parse_policy",
]
