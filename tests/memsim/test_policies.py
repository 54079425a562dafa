"""Arbitration policy unit tests: the §II-A hypotheses, one by one."""

import pytest

from repro.memsim import ContentionProfile, Resource, ResourceKind, Stream, StreamKind
from repro.memsim.policies import Crossing, ResourceRule, smooth_min, waterfill


def profile(**overrides):
    base = dict(
        core_stream_local_gbps=6.0,
        core_stream_remote_gbps=2.5,
        nic_min_fraction=0.4,
        sag_onset=0.8,
        sag_span=0.2,
        interference_core_gbps=0.0,
        interference_mixed_gbps=0.0,
        dma_concurrency_bonus=0.0,
        saturation_sharpness=1e6,  # razor-sharp knee for exact arithmetic
    )
    base.update(overrides)
    return ContentionProfile(**base)


def controller(capacity=60.0, remote=30.0):
    return Resource(
        resource_id="ctrl:0",
        kind=ResourceKind.MEMORY_CONTROLLER,
        capacity_gbps=capacity,
        remote_capacity_gbps=remote,
        socket=0,
    )


def mesh(capacity=70.0):
    return Resource(
        resource_id="mesh:0",
        kind=ResourceKind.SOCKET_MESH,
        capacity_gbps=capacity,
        socket=0,
    )


def cpu_stream(i, demand=6.0, origin=0, issue=0.0):
    return Stream(
        stream_id=f"core{i}",
        kind=StreamKind.CPU,
        demand_gbps=demand,
        path=("mesh:0", "ctrl:0"),
        target_numa=0,
        origin_socket=origin,
        issue_gbps=issue,
    )


def nic_stream(demand=10.0, floor=4.0, origin=0):
    return Stream(
        stream_id="nic",
        kind=StreamKind.DMA,
        demand_gbps=demand,
        path=("nic:0", "pcie:0", "mesh:0", "ctrl:0"),
        target_numa=0,
        origin_socket=origin,
        min_guarantee_gbps=floor,
    )


class Policy:
    """One profile's rules, asked resource by resource.

    Offers are ``(stream, gbps)`` pairs; a rule reads each stream's
    class, origin, mesh pressure and floor from the stream itself.
    """

    def __init__(self, profile):
        self.profile = profile

    def _ask(self, resource, offers):
        streams = [stream for stream, _ in offers]
        crossing = Crossing(
            [s.is_cpu for s in streams],
            [s.origin_socket for s in streams],
            [s.pressure_gbps for s in streams],
            [s.min_guarantee_gbps for s in streams],
        )
        return ResourceRule(resource, self.profile), [g for _, g in offers], crossing

    def effective_capacity(self, resource, offers):
        rule, gbps, crossing = self._ask(resource, offers)
        return rule.effective_capacity(gbps, crossing)

    def allocate(self, resource, offers):
        rule, gbps, crossing = self._ask(resource, offers)
        shares = rule.allocate(gbps, crossing)
        return {stream.stream_id: share for (stream, _), share in zip(offers, shares)}


class TestHelpers:
    def test_smooth_min_exact_away_from_knee(self):
        assert smooth_min(10.0, 50.0, 5.0) == 10.0
        assert smooth_min(50.0, 10.0, 5.0) == 10.0

    def test_smooth_min_dips_at_equality(self):
        assert smooth_min(10.0, 10.0, 4.0) == pytest.approx(10.0 - 1.0)

    def test_smooth_min_zero_width_is_min(self):
        assert smooth_min(3.0, 7.0, 0.0) == 3.0

    def test_waterfill_equal_split(self):
        assert waterfill([5.0, 5.0], 6.0) == pytest.approx([3.0, 3.0])

    def test_waterfill_caps_at_offer(self):
        shares = waterfill([1.0, 10.0], 6.0)
        assert shares[0] == pytest.approx(1.0)
        assert shares[1] == pytest.approx(5.0)

    def test_waterfill_no_budget(self):
        assert waterfill([2.0, 3.0], 0.0) == [0.0, 0.0]

    def test_waterfill_abundant_budget(self):
        assert waterfill([2.0, 3.0], 100.0) == pytest.approx([2.0, 3.0])

    def test_waterfill_empty(self):
        assert waterfill([], 5.0) == []


class TestEffectiveCapacity:
    def test_no_interference_below_saturation(self):
        policy = Policy(profile())
        offers = [(cpu_stream(i), 6.0) for i in range(5)]  # 30 < 60
        assert policy.effective_capacity(controller(), offers) == pytest.approx(60.0)

    def test_core_interference_beyond_knee(self):
        policy = Policy(profile(interference_core_gbps=0.5))
        # knee at 60/6 = 10 cores; 12 cores = 2 excess units.
        offers = [(cpu_stream(i), 6.0) for i in range(12)]
        assert policy.effective_capacity(controller(), offers) == pytest.approx(
            60.0 - 0.5 * 2
        )

    def test_dma_bonus(self):
        policy = Policy(profile(dma_concurrency_bonus=0.05))
        offers = [(cpu_stream(0), 6.0), (nic_stream(), 10.0)]
        assert policy.effective_capacity(controller(), offers) == pytest.approx(63.0)

    def test_mixed_interference_between_knees(self):
        policy = Policy(
            profile(interference_mixed_gbps=1.0, interference_core_gbps=0.5)
        )
        # par knee = (60-12)/6 = 8, seq knee = 10; n=9 -> 1 mixed unit.
        offers = [(cpu_stream(i), 6.0) for i in range(9)]
        offers.append((nic_stream(demand=12.0), 12.0))
        assert policy.effective_capacity(controller(), offers) == pytest.approx(
            60.0 - 1.0
        )

    def test_remote_mix_lowers_capacity(self):
        policy = Policy(profile())
        local = [(cpu_stream(i, origin=0), 6.0) for i in range(4)]
        remote = [(cpu_stream(i + 10, origin=1), 6.0) for i in range(4)]
        cap_local = policy.effective_capacity(controller(), local)
        cap_remote = policy.effective_capacity(controller(), remote)
        assert cap_local == pytest.approx(60.0)
        assert cap_remote == pytest.approx(30.0)
        cap_mixed = policy.effective_capacity(controller(), local + remote)
        assert cap_remote < cap_mixed < cap_local

    def test_interference_floor(self):
        policy = Policy(profile(interference_core_gbps=100.0))
        offers = [(cpu_stream(i), 6.0) for i in range(20)]
        assert policy.effective_capacity(controller(), offers) >= 0.2 * 60.0

    def test_pipes_have_plain_capacity(self):
        policy = Policy(profile(interference_core_gbps=5.0))
        link = Resource(
            resource_id="link", kind=ResourceKind.SOCKET_LINK, capacity_gbps=42.0
        )
        offers = [(cpu_stream(i), 6.0) for i in range(20)]
        assert policy.effective_capacity(link, offers) == 42.0


class TestControllerAllocation:
    def test_no_contention_grants_demands(self):
        policy = Policy(profile())
        offers = [(cpu_stream(0), 6.0), (nic_stream(), 10.0)]
        shares = policy.allocate(controller(), offers)
        assert shares["core0"] == pytest.approx(6.0)
        assert shares["nic"] == pytest.approx(10.0)

    def test_dma_fully_protected_at_controller(self):
        """Controllers never double-tax the mesh-throttled NIC traffic."""
        policy = Policy(profile())
        offers = [(cpu_stream(i), 6.0) for i in range(10)]  # 60 = capacity
        offers.append((nic_stream(demand=8.0), 8.0))
        shares = policy.allocate(controller(), offers)
        assert shares["nic"] == pytest.approx(8.0)
        cpu_total = sum(v for k, v in shares.items() if k.startswith("core"))
        assert cpu_total == pytest.approx(60.0 - 8.0, rel=1e-6)

    def test_cpu_split_is_uniform(self):
        """Paper: computation degrades uniformly between cores."""
        policy = Policy(profile())
        offers = [(cpu_stream(i), 6.0) for i in range(12)]
        offers.append((nic_stream(demand=10.0), 10.0))
        shares = policy.allocate(controller(), offers)
        cpu_shares = [v for k, v in shares.items() if k.startswith("core")]
        assert max(cpu_shares) - min(cpu_shares) < 1e-9

    def test_no_priority_mode_shares_proportionally(self):
        policy = Policy(profile(cpu_priority=False))
        offers = [(cpu_stream(i), 6.0) for i in range(10)]
        offers.append((nic_stream(demand=12.0), 12.0))
        shares = policy.allocate(controller(), offers)
        scale = 60.0 / 72.0
        assert shares["nic"] == pytest.approx(12.0 * scale)
        assert shares["core0"] == pytest.approx(6.0 * scale)

    def test_zero_offers_get_zero(self):
        policy = Policy(profile())
        offers = [(cpu_stream(0), 0.0), (nic_stream(), 10.0)]
        shares = policy.allocate(controller(), offers)
        assert shares["core0"] == 0.0
        assert shares["nic"] == 10.0

    def test_conservation_under_overload(self):
        policy = Policy(profile())
        offers = [(cpu_stream(i), 6.0) for i in range(15)]
        offers.append((nic_stream(demand=12.0), 12.0))
        shares = policy.allocate(controller(), offers)
        assert sum(shares.values()) <= 60.0 + 1e-9


class TestMeshAllocation:
    def test_nic_full_below_onset(self):
        policy = Policy(profile())
        offers = [(cpu_stream(i, issue=6.0), 6.0) for i in range(5)]  # 30
        offers.append((nic_stream(demand=10.0), 10.0))
        shares = policy.allocate(mesh(capacity=70.0), offers)  # rho 40/70
        assert shares["nic"] == pytest.approx(10.0)

    def test_nic_at_floor_past_sag(self):
        policy = Policy(profile())
        # pressure = 10*6 + 10 = 70; rho = 70/60 = 1.17 > onset+span = 1.0
        offers = [(cpu_stream(i, issue=6.0), 6.0) for i in range(10)]
        offers.append((nic_stream(demand=10.0, floor=4.0), 10.0))
        shares = policy.allocate(mesh(capacity=60.0), offers)
        assert shares["nic"] == pytest.approx(4.0)

    def test_nic_sags_smoothly_between(self):
        policy = Policy(profile())
        m = mesh(capacity=60.0)
        nic_shares = []
        for n in (6, 7, 8, 9):
            offers = [(cpu_stream(i, issue=6.0), 6.0) for i in range(n)]
            offers.append((nic_stream(demand=10.0, floor=4.0), 10.0))
            nic_shares.append(policy.allocate(m, offers)["nic"])
        assert nic_shares == sorted(nic_shares, reverse=True)
        assert nic_shares[0] > 4.0
        assert nic_shares[-1] >= 4.0 - 1e-9

    def test_cpu_pressure_uses_issue_rate(self):
        """A core writing remotely still pressures its mesh at issue rate."""
        policy = Policy(profile())
        m = mesh(capacity=60.0)
        # Real arriving load tiny (2.0 each) but issue pressure high.
        offers = [
            (cpu_stream(i, demand=2.0, issue=6.0), 2.0)
            for i in range(10)
        ]
        offers.append((nic_stream(demand=10.0, floor=4.0), 10.0))
        shares = policy.allocate(m, offers)
        assert shares["nic"] == pytest.approx(4.0)
        # CPU streams keep their real (small) loads.
        assert shares["core0"] == pytest.approx(2.0)

    def test_mesh_without_dma_is_plain_pipe(self):
        policy = Policy(profile())
        offers = [(cpu_stream(i, issue=6.0), 6.0) for i in range(20)]  # 120
        shares = policy.allocate(mesh(capacity=60.0), offers)
        assert sum(shares.values()) == pytest.approx(60.0)

    def test_mesh_no_priority_mode(self):
        policy = Policy(profile(cpu_priority=False))
        offers = [(cpu_stream(i, issue=6.0), 6.0) for i in range(15)]
        offers.append((nic_stream(demand=10.0), 10.0))
        shares = policy.allocate(mesh(capacity=50.0), offers)
        scale = 50.0 / 100.0
        assert shares["nic"] == pytest.approx(10.0 * scale)
