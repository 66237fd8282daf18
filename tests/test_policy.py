"""Tenant policy subsystem: document validation, compilation,
energy-budgeted brownout, the strict startup load, admission gates and
the wire compatibility of the HELLO ``tenant`` key."""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.observability import scoped
from repro.platform.mpsoc import GHZ, MpsocConfig, XEON_E5_2667
from repro.policy import (
    EnergyBudgetScheduler,
    EnergyLedger,
    PolicyError,
    compile_policy,
    load_policy_file,
    parse_policy,
)
from repro.policy import smoke as policy_smoke
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
        "power_cap_w": 100.0,
        "energy_window_s": 1.0,
        "default_tenant": "clinic",
        "brownout": {"readmit_fraction": 0.5, "readmit_after_checks": 2},
        "tenants": [
            {"name": "er", "tier": "emergency", "weight": 3.0,
             "min_psnr_db": 37.0, "max_deadline_miss_rate": 0.02},
            {"name": "clinic", "tier": "urgent", "weight": 2.0,
             "min_psnr_db": 31.0},
            {"name": "archive", "tier": "archival", "weight": 1.0,
             "max_rungs": 1, "power_budget_w": 20.0},
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
        assert doc.tenant("archive").power_budget_w == 20.0

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
        bad = _doc()
        bad["tenants"][2]["power_budget_w"] = -5
        with pytest.raises(PolicyError) as exc:
            parse_policy(bad)
        assert "tenants[2].power_budget_w" in str(exc.value)
        assert ">= 0" in str(exc.value)

    def test_unknown_default_tenant_reference(self):
        with pytest.raises(PolicyError) as exc:
            parse_policy(_doc(default_tenant="ghost"))
        msg = str(exc.value)
        assert "default_tenant" in msg
        assert "'ghost'" in msg
        assert "er, clinic, archive" in msg  # declared tenants listed

    def test_unknown_key_did_you_mean(self):
        with pytest.raises(PolicyError) as exc:
            parse_policy(_doc(power_cap="100"))
        assert "did you mean 'power_cap_w'" in str(exc.value)

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
        with pytest.raises(PolicyError, match="min_ghz"):
            parse_policy(_doc(dvfs={"min_ghz": 3.6, "max_ghz": 2.9}))

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

    def test_clamp_platform_filters_frequencies(self):
        policy = compile_policy(parse_policy(_doc(dvfs={"max_ghz": 3.3})))
        clamped = policy.clamp_platform(XEON_E5_2667)
        assert clamped.f_max == 3.2 * GHZ
        assert 3.6 * GHZ not in clamped.frequencies_hz

    def test_clamp_platform_impossible_bounds_raise(self):
        policy = compile_policy(parse_policy(_doc(dvfs={"max_ghz": 1.0})))
        with pytest.raises(PolicyError, match="no platform frequency"):
            policy.clamp_platform(XEON_E5_2667)


# ----------------------------------------------------------------------
# Energy ledger + brownout scheduler
# ----------------------------------------------------------------------
class TestEnergyLedger:
    def test_windowed_power_is_energy_over_window(self):
        ledger = EnergyLedger(window_s=2.0)
        ledger.record(0.0, 10.0)
        ledger.record(1.0, 10.0)
        assert ledger.windowed_power(1.0) == pytest.approx(10.0)

    def test_slot_grid_boundary_expires_exactly(self):
        # Entries land on a 1/FPS grid; float subtraction of the window
        # must not keep an extra slot alive (that inflates power 1.5x).
        fps, window = 10.0, 0.2
        ledger = EnergyLedger(window_s=window)
        for slot in range(5):
            ledger.record((slot + 1) / fps, 1.0)
        # At now=0.5 the window [0.3, 0.5] holds exactly two entries.
        assert ledger.windowed_energy(0.5) == pytest.approx(2.0)

    def test_negative_energy_and_bad_window_rejected(self):
        with pytest.raises(ValueError):
            EnergyLedger(window_s=0.0)
        with pytest.raises(ValueError):
            EnergyLedger(window_s=1.0).record(0.0, -1.0)

    @given(st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 5.0)),
                    min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_windowed_energy_never_exceeds_total(self, entries):
        ledger = EnergyLedger(window_s=1.0)
        now = 0.0
        for dt, energy in entries:
            now += dt
            ledger.record(now, energy)
        assert 0.0 <= ledger.windowed_energy(now) <= ledger.total_j + 1e-9


class TestBrownout:
    def _scheduler(self, **overrides) -> EnergyBudgetScheduler:
        return EnergyBudgetScheduler(
            compile_policy(parse_policy(_doc(**overrides)))
        )

    def test_sheds_in_strict_reverse_priority_order(self):
        with scoped():
            sched = self._scheduler()
            sched.observe(1.0, 500.0)     # 500 W >> 100 W cap
            assert [e.kind for e in sched.check(1.0)] == ["shed"]
            assert sched.shed_tenants == ("archive",)
            sched.observe(1.1, 500.0)
            sched.check(1.1)
            assert sched.shed_tenants == ("archive", "clinic")
            assert not sched.serves("archive")
            assert sched.serves("er")

    def test_emergency_never_shed_cap_violation_counted(self):
        with scoped():
            sched = self._scheduler()
            for i in range(5):
                sched.observe(1.0 + i / 10, 500.0)
                sched.check(1.0 + i / 10)
            assert sched.shed_tenants == ("archive", "clinic")
            assert sched.serves("er")
            assert sched.cap_violations >= 1

    def test_hysteretic_readmission_reverse_order(self):
        with scoped():
            sched = self._scheduler()
            sched.observe(1.0, 500.0)
            sched.check(1.0)
            sched.observe(1.1, 500.0)
            sched.check(1.1)
            assert sched.shed_tenants == ("archive", "clinic")
            # Window drains; below cap but above the readmit threshold
            # (50 W): nothing comes back.
            sched.observe(3.0, 60.0)
            assert sched.check(3.0) == []
            # Below the threshold: needs 2 consecutive clear checks.
            assert sched.check(5.0) == []
            events = sched.check(5.1)
            assert [(e.kind, e.tenant) for e in events] == [
                ("readmit", "clinic")
            ]
            sched.check(5.2)
            events = sched.check(5.3)
            assert [(e.kind, e.tenant) for e in events] == [
                ("readmit", "archive")
            ]
            assert sched.shed_tenants == ()

    def test_shed_tenant_admission_refused(self):
        with scoped():
            sched = self._scheduler()
            sched.observe(1.0, 500.0)
            sched.check(1.0)
            ok, reason = sched.admits("archive")
            assert not ok and "brownout" in reason
            assert sched.admits("er") == (True, "")

    def test_per_tenant_budget_throttles_only_that_tenant(self):
        with scoped():
            sched = self._scheduler(power_cap_w=None)
            # archive's 20 W budget, exceeded by archive's own draw.
            sched.observe(1.0, 100.0, tenant="archive")
            events = sched.check(1.0)
            assert [(e.kind, e.tenant) for e in events] == [
                ("throttle", "archive")
            ]
            ok, reason = sched.admits("archive")
            assert not ok and "20 W" in reason
            assert sched.admits("clinic") == (True, "")
            assert sched.serves("archive")  # throttle gates admission only
            # Drained below 50% of budget for 2 checks: unthrottles.
            sched.check(3.0)
            events = sched.check(3.1)
            assert [(e.kind, e.tenant) for e in events] == [
                ("unthrottle", "archive")
            ]


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

    def test_energy_gate_rejects_shed_tenant(self):
        with scoped():
            ctrl = _policy_controller()
            sched = EnergyBudgetScheduler(ctrl.compiled)
            ctrl.set_policy(ctrl.compiled, energy=sched)
            sched.observe(1.0, 500.0)
            sched.check(1.0)
            decision, reason, _ = ctrl.decide(
                0, Hello(width=96, height=96, fps=24.0, tenant="archive")
            )
            assert decision is AdmissionDecision.REJECT
            assert "brownout" in reason


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


# ----------------------------------------------------------------------
# The brownout drill
# ----------------------------------------------------------------------
class TestPolicySmoke:
    def test_drill_passes_against_golden(self, capsys):
        assert policy_smoke.run() == 0
        out = capsys.readouterr().out
        assert "policy-smoke OK" in out

    def test_drill_is_deterministic(self):
        first = policy_smoke._stream_demands()
        second = policy_smoke._stream_demands()
        assert {
            t: [d.total_cpu_time_fmax for d in ds]
            for t, ds in first.items()
        } == {
            t: [d.total_cpu_time_fmax for d in ds]
            for t, ds in second.items()
        }
