"""Declarative per-tenant policy: documents, compiler, energy budget.

The package splits cleanly into three layers:

* :mod:`repro.policy.document` — YAML/JSON grammar, schema validation
  with actionable line/key errors, the frozen :class:`PolicyDocument`.
* :mod:`repro.policy.compiler` — lowering into a
  :class:`CompiledPolicy` of concrete serving knobs (admission shares,
  shed order, ladder caps, DVFS bounds).
* :mod:`repro.policy.energy` — the sliding energy ledger and the
  brownout scheduler that enforces the power envelope.

A server loads its policy once, at start; a changed file takes a drain
and a restart.
"""

from repro.policy.compiler import CompiledPolicy, TenantRuntime, compile_policy
from repro.policy.document import (
    PRIORITY_TIERS,
    BrownoutSpec,
    DvfsSpec,
    PolicyDocument,
    PolicyError,
    TenantSpec,
    load_policy_file,
    parse_policy,
)
from repro.policy.energy import BrownoutEvent, EnergyBudgetScheduler, EnergyLedger

__all__ = [
    "PRIORITY_TIERS",
    "BrownoutEvent",
    "BrownoutSpec",
    "CompiledPolicy",
    "DvfsSpec",
    "EnergyBudgetScheduler",
    "EnergyLedger",
    "PolicyDocument",
    "PolicyError",
    "TenantRuntime",
    "TenantSpec",
    "compile_policy",
    "load_policy_file",
    "parse_policy",
]
