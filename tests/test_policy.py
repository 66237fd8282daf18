"""Tenant policy subsystem: document validation, compilation, the
strict startup load, admission gates and the wire compatibility of the
HELLO ``tenant`` key."""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.observability import scoped
from repro.platform.mpsoc import MpsocConfig
from repro.policy import (
    PolicyError,
    compile_policy,
    load_policy_file,
    parse_policy,
)
from repro.resilience.degradation import DegradationLevel, ResilienceConfig
from repro.serving.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
)
from repro.serving.fleet import FleetConfig, FleetSupervisor
from repro.serving.loadgen import LoadGenConfig, run_loadgen_async
from repro.serving.protocol import Hello, MessageDecoder, encode_message
from repro.serving.server import NetworkServer, ServeNetConfig


def _doc(**overrides) -> dict:
    doc = {
        "version": 1,
        "default_tenant": "clinic",
        "tenants": [
            {"name": "er", "tier": "emergency", "weight": 3.0,
             "min_psnr_db": 37.0, "max_deadline_miss_rate": 0.02},
            {"name": "clinic", "tier": "urgent", "weight": 2.0,
             "min_psnr_db": 31.0},
            {"name": "archive", "tier": "archival", "weight": 1.0,
             "max_rungs": 1},
        ],
    }
    doc.update(overrides)
    return doc


# ----------------------------------------------------------------------
# Document validation
# ----------------------------------------------------------------------
class TestDocument:
    def test_valid_document_parses(self):
        doc = parse_policy(_doc(), source="<test>")
        assert doc.default_tenant == "clinic"
        assert [t.name for t in doc.tenants] == ["er", "clinic", "archive"]
        assert doc.tenants[2].max_rungs == 1

    def test_bad_tier_names_path_and_choices(self):
        bad = _doc()
        bad["tenants"][0]["tier"] = "critical"
        with pytest.raises(PolicyError) as exc:
            parse_policy(bad, source="pol.yaml")
        msg = str(exc.value)
        assert "tenants[0].tier" in msg
        assert "'critical'" in msg
        assert "emergency" in msg          # the accepted tiers are listed
        assert msg.startswith("pol.yaml:")

    def test_negative_budget_rejected_with_path(self):
        """A negative bound (here the miss-rate budget) names its key."""
        bad = _doc()
        bad["tenants"][2]["max_deadline_miss_rate"] = -0.5
        with pytest.raises(PolicyError) as exc:
            parse_policy(bad)
        assert "tenants[2].max_deadline_miss_rate" in str(exc.value)
        assert ">= 0" in str(exc.value)

    def test_non_finite_numbers_rejected_with_path(self):
        """JSON's NaN/Infinity and YAML's .nan/.inf are refused.  A NaN
        compares false against every bound: as ``min_psnr_db`` it would
        compile to the weakest cap, as ``weight`` it would make every
        share NaN and every entitlement check pass."""
        for key in ("weight", "min_psnr_db", "max_deadline_miss_rate"):
            for value in (float("nan"), float("inf"), float("-inf"),
                          10 ** 400):  # JSON's ints have no float bound
                bad = _doc()
                bad["tenants"][1][key] = value
                with pytest.raises(PolicyError) as exc:
                    parse_policy(bad)
                assert exc.value.path == f"tenants[1].{key}", value
                assert "finite" in str(exc.value), (key, value)
        # The same from a JSON text, as JSON spells it.
        text = json.dumps(_doc()).replace('"min_psnr_db": 31.0',
                                          '"min_psnr_db": NaN')
        assert "NaN" in text
        with pytest.raises(PolicyError, match=r"tenants\[1\].min_psnr_db"):
            parse_policy(json.loads(text))

    def test_unknown_default_tenant_reference(self):
        with pytest.raises(PolicyError) as exc:
            parse_policy(_doc(default_tenant="ghost"))
        msg = str(exc.value)
        assert "default_tenant" in msg
        assert "'ghost'" in msg
        assert "er, clinic, archive" in msg  # declared tenants listed

    def test_unknown_key_did_you_mean(self):
        with pytest.raises(PolicyError) as exc:
            parse_policy(_doc(default_tennant="er"))
        assert "did you mean 'default_tenant'" in str(exc.value)
        # A document written for the deleted energy brownout fails at
        # start, whole, rather than being half-applied.
        with pytest.raises(PolicyError, match="unknown key") as exc:
            parse_policy(_doc(brownout={"readmit_fraction": 0.8}))
        assert exc.value.path == "brownout"

    def test_duplicate_tenant_names_point_at_first(self):
        bad = _doc()
        bad["tenants"].append({"name": "er", "tier": "routine"})
        with pytest.raises(PolicyError) as exc:
            parse_policy(bad)
        assert "tenants[3].name" in str(exc.value)
        assert "tenants[0]" in str(exc.value)

    def test_zero_weight_rejected(self):
        bad = _doc()
        bad["tenants"][1]["weight"] = 0
        with pytest.raises(PolicyError, match="tenants\\[1\\].weight"):
            parse_policy(bad)

    def test_unsupported_version(self):
        with pytest.raises(PolicyError, match="version"):
            parse_policy(_doc(version=2))

    def test_dvfs_inverted_bounds(self):
        """The policy no longer clamps DVFS: a document that still sets
        bounds — here inverted ones — is refused whole at start."""
        with pytest.raises(PolicyError, match="unknown key") as exc:
            parse_policy(_doc(dvfs={"min_ghz": 3.6, "max_ghz": 2.9}))
        assert exc.value.path == "dvfs"

    def test_empty_tenants_rejected(self):
        with pytest.raises(PolicyError, match="tenants"):
            parse_policy(_doc(tenants=[]))

    def test_json_file_with_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"version": 1,\n  "tenants": [}')
        with pytest.raises(PolicyError) as exc:
            load_policy_file(str(path))
        assert "line 2" in str(exc.value)

    def test_yaml_file_round_trips(self, tmp_path):
        path = tmp_path / "pol.yaml"
        path.write_text(json.dumps(_doc()))  # JSON is a YAML subset
        doc = load_policy_file(str(path))
        assert doc.source == str(path)
        assert len(doc.tenants) == 3


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
class TestCompiler:
    def test_capacity_fractions_normalize(self):
        policy = compile_policy(parse_policy(_doc()))
        fractions = {n: rt.capacity_fraction
                     for n, rt in policy.tenants.items()}
        assert fractions == pytest.approx(
            {"er": 0.5, "clinic": 2 / 6, "archive": 1 / 6}
        )
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_shed_order_reverse_priority_excludes_top_tier(self):
        policy = compile_policy(parse_policy(_doc()))
        assert policy.shed_order == ("archive", "clinic")
        assert policy.tenants["er"].shed_rank is None

    def test_psnr_floor_caps_degradation_ladder(self):
        policy = compile_policy(parse_policy(_doc()))
        assert policy.tenants["er"].max_level is DegradationLevel.NONE
        assert policy.tenants["clinic"].max_level is (
            DegradationLevel.QP_BUMP
        )
        assert policy.tenants["archive"].max_level is (
            DegradationLevel.FRAME_DROP
        )

    def test_miss_rate_drives_escalation(self):
        policy = compile_policy(parse_policy(_doc()))
        assert policy.tenants["er"].escalate_after == 1
        assert policy.tenants["clinic"].escalate_after == 2

    def test_resolve_falls_through_to_default(self):
        policy = compile_policy(parse_policy(_doc()))
        assert policy.resolve_name("") == "clinic"
        assert policy.resolve_name("never-heard-of-it") == "clinic"
        assert policy.resolve_name("er") == "er"

    def test_resilience_for_bounds_base_config(self):
        policy = compile_policy(parse_policy(_doc()))
        base = ResilienceConfig(max_level=DegradationLevel.FRAME_DROP,
                                escalate_after=3)
        bounded = policy.resilience_for("er", base)
        assert bounded.max_level is DegradationLevel.NONE
        assert bounded.escalate_after == 1


# ----------------------------------------------------------------------
# Startup: a policy is loaded once, strictly
# ----------------------------------------------------------------------
class TestStartupLoad:
    def test_initial_load_is_strict(self, tmp_path):
        """A server or a fleet must refuse to start on a broken policy
        rather than silently run unpoliced."""
        path = tmp_path / "pol.json"
        path.write_text('{"tenants": []}')
        server = ServeNetConfig(journal_dir=str(tmp_path / "j"),
                                policy_file=str(path))
        with pytest.raises(PolicyError):
            NetworkServer(server)
        with pytest.raises(PolicyError):
            FleetSupervisor(FleetConfig(server=server))


# ----------------------------------------------------------------------
# Admission integration
# ----------------------------------------------------------------------
class _FixedEstimator:
    def __init__(self, cpu_per_frame: float):
        self.cpu_per_frame = cpu_per_frame

    def estimate(self, key, area):
        return self.cpu_per_frame


def _policy_controller(**policy_overrides):
    # 2-core platform; each session needs 0.45 cores.  clinic holds
    # 2/6 of capacity = 0.67 cores -> exactly one session fits its
    # entitlement; er holds 1.0 core -> two sessions fit.
    ctrl = AdmissionController(
        estimator=_FixedEstimator(0.45 / 24.0),
        platform=MpsocConfig(num_sockets=1, cores_per_socket=2),
        policy=AdmissionPolicy(park_capacity=1),
    )
    ctrl.set_policy(compile_policy(parse_policy(_doc(**policy_overrides))))
    return ctrl


class TestAdmissionGates:
    def test_entitlement_parks_then_rejects_within_tenant(self):
        with scoped():
            ctrl = _policy_controller()
            hello = Hello(width=96, height=96, fps=24.0, tenant="clinic")
            assert ctrl.decide(0, hello)[0] is AdmissionDecision.ACCEPT
            decision, reason, _ = ctrl.decide(1, hello)
            assert decision is AdmissionDecision.PARK
            decision, reason, _ = ctrl.decide(2, hello)
            assert decision is AdmissionDecision.REJECT
            assert "entitlement" in reason

    def test_ladder_over_entitlement_is_the_tenants_problem(self):
        """A ladder HELLO over its tenant's entitlement waits on (or is
        refused for) the *tenant's* cap like any other, on a server
        that is mostly idle: entitlement reason, entitlement metric."""
        with scoped() as (registry, _):
            ctrl = _policy_controller()
            plain = Hello(width=96, height=96, fps=24.0, tenant="clinic")
            assert ctrl.decide(0, plain)[0] is AdmissionDecision.ACCEPT
            ladder = Hello(width=96, height=96, fps=24.0, tenant="clinic",
                           ladder=((96, 96), (48, 48)))
            for sid in range(1, 6):
                decision, reason, kept = ctrl.decide(sid, ladder)
                assert decision in (AdmissionDecision.PARK,
                                    AdmissionDecision.REJECT)
                assert kept == ()
                assert "entitlement" in reason
            assert registry.value("repro_serving_tenant_entitlement_total",
                                  tenant="clinic") == 5

    def test_a_ladder_loses_low_rungs_to_its_cap_then_to_capacity(self):
        """Before the session is refused, a ladder loses low rungs two
        ways: its tenant's ``max_rungs`` trims them before pricing
        (counted per tenant), and rung-drop-before-shed drops the ones
        that do not fit (counted over every tenant)."""
        tenants = [dict(t, max_rungs=2) if t["name"] == "er" else t
                   for t in _doc()["tenants"]]
        ladder = ((96, 96), (48, 48), (24, 24))
        with scoped() as (registry, _):
            ctrl = _policy_controller(tenants=tenants)
            # er: trimmed to two rungs, 0.9 of its 1.0-core share.
            decision, _, kept = ctrl.decide(
                0, Hello(width=96, height=96, fps=24.0, tenant="er",
                         ladder=ladder))
            assert decision is AdmissionDecision.ACCEPT
            assert kept == ladder[:2]
            # clinic: its 0.67 cores hold one 0.45-core rung.
            decision, _, kept = ctrl.decide(
                1, Hello(width=96, height=96, fps=24.0, tenant="clinic",
                         ladder=ladder))
            assert decision is AdmissionDecision.ACCEPT
            assert kept == ladder[:1]
            assert registry.value("repro_serving_ladder_rungs_trimmed_total",
                                  tenant="er") == 1
            assert registry.value(
                "repro_serving_ladder_rungs_dropped_total") == 2

    def test_other_tenant_unaffected_by_full_neighbour(self):
        with scoped():
            ctrl = _policy_controller()
            clinic = Hello(width=96, height=96, fps=24.0, tenant="clinic")
            er = Hello(width=96, height=96, fps=24.0, tenant="er")
            assert ctrl.decide(0, clinic)[0] is AdmissionDecision.ACCEPT
            assert ctrl.decide(1, er)[0] is AdmissionDecision.ACCEPT
            assert ctrl.decide(2, er)[0] is AdmissionDecision.ACCEPT

    def test_release_frees_entitlement(self):
        with scoped():
            ctrl = _policy_controller()
            hello = Hello(width=96, height=96, fps=24.0, tenant="clinic")
            assert ctrl.decide(0, hello)[0] is AdmissionDecision.ACCEPT
            ctrl.release(0)
            assert ctrl.decide(1, hello)[0] is AdmissionDecision.ACCEPT

    def test_tenant_occupancies_fold_by_resolved_name(self):
        with scoped():
            ctrl = _policy_controller()
            ctrl.decide(0, Hello(width=96, height=96, fps=24.0,
                                 tenant="er"))
            ctrl.decide(1, Hello(width=96, height=96, fps=24.0))
            occ = ctrl.tenant_occupancies()
            assert occ["er"] == pytest.approx(0.45)
            assert occ["clinic"] == pytest.approx(0.45)  # default tenant


class TestServedLadderCap:
    def test_top_tier_stream_is_never_degraded(self, tmp_path):
        """On the served path, a tenant's compiled cap bounds its
        streams' degradation ladder: under the same deadline pressure
        (a 2000 fps HELLO, a slot shorter than most frames' modelled
        CPU time) er — whose PSNR floor compiles to ``NONE`` — never
        drops a frame for its deadline, while archive climbs to
        ``FRAME_DROP`` and does."""
        path = tmp_path / "pol.json"
        path.write_text(json.dumps(_doc()))

        async def run():
            server = NetworkServer(ServeNetConfig(policy_file=str(path)))
            await server.start()
            try:
                reports = {}
                for tenant in ("er", "archive"):
                    reports[tenant] = await run_loadgen_async(LoadGenConfig(
                        port=server.port, sessions=1, frames=24, width=64,
                        height=64, fps=2000.0, seed=3,
                        frame_interval_s=0.01, tenants=((tenant, 1.0),)))
                return reports
            finally:
                await server.aclose()

        with scoped():
            reports = asyncio.run(run())
        deadline = {}
        for tenant, report in reports.items():
            (session,) = report.sessions
            assert session.error is None and report.protocol_errors == 0
            assert session.frames_dropped + session.frames_encoded == 24
            deadline[tenant] = (
                session.server_stats["frames_dropped"].get("deadline", 0))
        assert deadline["er"] == 0
        assert deadline["archive"] >= 1


class AdmissionMachine(RuleBasedStateMachine):
    """decide / unpark / abandon_park / release against a model that
    only counts: which sessions hold a ticket (and for how many rungs),
    which hold a park slot.  One rule to drive — every HELLO shape goes
    through :meth:`AdmissionController.decide`."""

    _LADDERS = (((96, 96),), ((96, 96), (48, 48)),
                ((96, 96), (48, 48), (24, 24)))
    _RUNG_CORES = 0.45

    def __init__(self):
        super().__init__()
        self._scope = scoped()
        self._scope.__enter__()
        # 2 cores; clinic is entitled to 0.67 of them, er to 1.0, and
        # every rung prices at 0.45: slot cap, entitlement, rung drops
        # and the waiting room all come into play within a few HELLOs.
        self.ctrl = AdmissionController(
            estimator=_FixedEstimator(self._RUNG_CORES / 24.0),
            platform=MpsocConfig(num_sockets=1, cores_per_socket=2),
            policy=AdmissionPolicy(park_capacity=2),
        )
        self.ctrl.set_policy(compile_policy(parse_policy(_doc())))
        self.hellos = {}
        self.tickets = {}  # session id -> rungs kept
        self.parked = set()

    def teardown(self):
        self._scope.__exit__(None, None, None)

    def _settle(self, sid, outcome):
        decision, reason, kept = outcome
        asked = self.hellos[sid].ladder
        if decision is AdmissionDecision.ACCEPT:
            # A prefix of the request; the primary is never dropped.
            assert kept and kept == asked[:len(kept)], (asked, kept)
            self.tickets[sid] = len(kept)
            return
        assert kept == ()
        # Nothing here is unservable, so a refusal means "no room":
        # parked while the waiting room has a slot, rejected after.
        room = len(self.parked) < self.ctrl.policy.park_capacity
        assert (decision is AdmissionDecision.PARK) == room, reason
        if room:
            self.parked.add(sid)

    @rule(tenant=st.sampled_from(["clinic", "er"]),
          ladder=st.sampled_from(_LADDERS))
    def hello(self, tenant, ladder):
        sid = len(self.hellos)
        self.hellos[sid] = Hello(width=96, height=96, fps=24.0,
                                 tenant=tenant, ladder=ladder)
        self._settle(sid, self.ctrl.decide(sid, self.hellos[sid]))

    @precondition(lambda self: self.parked)
    @rule(data=st.data())
    def unpark(self, data):
        sid = data.draw(st.sampled_from(sorted(self.parked)))
        self.parked.remove(sid)
        self._settle(sid, self.ctrl.unpark(sid, self.hellos[sid]))

    @precondition(lambda self: self.parked)
    @rule(data=st.data())
    def abandon_park(self, data):
        self.parked.remove(data.draw(st.sampled_from(sorted(self.parked))))
        self.ctrl.abandon_park()

    @precondition(lambda self: self.tickets)
    @rule(data=st.data())
    def release(self, data):
        sid = data.draw(st.sampled_from(sorted(self.tickets)))
        del self.tickets[sid]
        self.ctrl.release(sid)

    @invariant()
    def park_slots_and_tickets_are_conserved(self):
        assert self.ctrl._parked == len(self.parked)
        assert 0 <= self.ctrl._parked <= self.ctrl.policy.park_capacity
        assert self.ctrl.active_sessions == len(self.tickets)
        assert self.ctrl.occupancy_cores == pytest.approx(
            self._RUNG_CORES * sum(self.tickets.values()))


AdmissionMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None,
)
TestAdmissionStateMachine = AdmissionMachine.TestCase


# ----------------------------------------------------------------------
# Wire compatibility
# ----------------------------------------------------------------------
class TestHelloTenantWire:
    def test_round_trip(self):
        hello = Hello(width=64, height=64, tenant="er")
        msgs = MessageDecoder().feed(bytes(encode_message(hello)))
        assert len(msgs) == 1
        assert isinstance(msgs[0], Hello) and msgs[0].tenant == "er"

    def test_empty_tenant_omitted_from_payload(self):
        # Pre-policy peers never sent the key; we must not start —
        # the no-policy wire bytes stay identical to PR 8's.
        payload = json.loads(Hello(width=64, height=64).payload())
        assert "tenant" not in payload

    def test_old_peer_payload_defaults_to_empty(self):
        old = Hello(width=64, height=64).payload()  # lacks the key
        assert Hello.from_payload(0, old).tenant == ""
