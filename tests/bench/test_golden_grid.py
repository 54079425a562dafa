"""Golden measurements: the placement grid's bytes, pinned by digest.

Every digest here was recorded from the simulator before a placement's
sweep was measured in one pass.  The grid digests cover
``run_placement_grid(...).to_csv(full_precision=True)``, so they pin
every measured float bit for bit; the ``measure_curves`` digests cover
the five arrays' dtypes, shapes and bytes.  A change to any stream, any
solve, the order of any sum, a noise key or the noise draws moves a
digest.  The error cases pin which core count of a sweep fails, and
how, when one cannot be measured.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.bench import SweepConfig, measure_curves, run_placement_grid
from repro.errors import BenchmarkError, SimulationError, TopologyError
from repro.topology import get_platform, platform_names
from tests.tie_order import digest_hint

CONFIGS = {
    "seed1": SweepConfig(seed=1),
    "seed7": SweepConfig(seed=7),
    "seed3-noiseless": SweepConfig(seed=3, noiseless=True),
    "seed2-reps3": SweepConfig(seed=2, repetitions=3),
}

#: ``(platform, config) -> sha256`` of the full-precision grid CSV.
GOLDEN_GRID = {
    ("henri", "seed1"): (
        "27f49e30e5b818080a8842af882f42561a73487dca09391dba032a0cb8207261"
    ),
    ("henri", "seed7"): (
        "c8ffd1924b54d78cf0037ba3ca43c87b8b9e16bcc64a032a8f91737ff8846cf7"
    ),
    ("henri", "seed3-noiseless"): (
        "728e54bf8960513f9e2837353f31a5ddfee3d6272123bb12dd5248bdac5afaed"
    ),
    ("henri-subnuma", "seed1"): (
        "3b47f2d202420fa32fb733322c955a780dc877846b9dcc06595780005e81278e"
    ),
    ("henri-subnuma", "seed7"): (
        "a3bb79d2b228306728b8b1aa58d450c83a73d50339fdaf3cc43529018762862e"
    ),
    ("henri-subnuma", "seed3-noiseless"): (
        "7ca4f564f43471ac1987aa4cfa051972bee0cd67d56f456ccf339aa43a383269"
    ),
    ("henri-subnuma", "seed2-reps3"): (
        "f9d5dc50c447fd2986d2f99c13fe7b84036c9857b76763e8fcb88cd97d0f757f"
    ),
    ("dahu", "seed1"): (
        "30114637415097ded23bb8e7a79cdb046b5ae21ffc2f42e1f9be2f6f1bf159f0"
    ),
    ("dahu", "seed7"): (
        "5b5e963b22d380a73b153b36465a1cab5ff2412fd134f49a5d1be6d73c87ad13"
    ),
    ("dahu", "seed3-noiseless"): (
        "4a583c2ac7c94629222dd633312daeb069eede5de0398d283aa2f441c2d0fad3"
    ),
    ("diablo", "seed1"): (
        "ef1abd72e4e1929a7ca2aae16e0218f21a358718cf80dfebf100ca8fd2878335"
    ),
    ("diablo", "seed7"): (
        "68ed7e9a24666e1d2e46451e805b7240da756ae8306c8e49a7f5bba23938ff13"
    ),
    ("diablo", "seed3-noiseless"): (
        "7bb00a0ff796031bb8bc0ff851167d11e31c40cc291ebf6714b07c0b4c2023a4"
    ),
    ("pyxis", "seed1"): (
        "7dcfa5295fb2b56ef8ce7c0f36b69b4e43584365327634a7d31887daf7fffad2"
    ),
    ("pyxis", "seed7"): (
        "96ce64b3a93cb82e56934a10462c3e9997e6a8bc2f882540bf20b06d599bdf14"
    ),
    ("pyxis", "seed3-noiseless"): (
        "a2db16cf5e3082d888f2b8546f590e49b4992a678d1888bda75be7abf4d39b7f"
    ),
    ("pyxis", "seed2-reps3"): (
        "7cb4188229967e4251a20660a1823f1495d3f377980f923e4f6857854e7b8133"
    ),
    ("occigen", "seed1"): (
        "41050005510d232b5ad295c1af79f757fd82f7b60c30d00dbd5a2957baafb3e1"
    ),
    ("occigen", "seed7"): (
        "5801956f1fe5d512b65b72c0584f952e501abe7bcfdb000ae7044bbf3de0bf7b"
    ),
    ("occigen", "seed3-noiseless"): (
        "0659e6380f041494f53dc053f677db738aa1d45600d5eacd2585a5b76c88949b"
    ),
}

#: ``placement -> sha256`` of pyxis's default-config curves at n = 1, 2, 32.
GOLDEN_PYXIS_CURVES = {
    (0, 1): "ec4941a997a8f13e10c222f34b0f4af852ff97e702388796320d77234a37e1ce",
    (1, 1): "d0f856a855a77b5a2db10f1fe3050410dc8f5e176c5cb9d52482818e722e83c7",
}


def curves_digest(curves) -> str:
    h = hashlib.sha256()
    for array in (
        curves.core_counts,
        curves.comp_alone,
        curves.comm_alone,
        curves.comp_parallel,
        curves.comm_parallel,
    ):
        h.update(array.dtype.str.encode())
        h.update(repr(array.shape).encode())
        h.update(array.tobytes())
    return h.hexdigest()


def test_every_platform_is_pinned():
    assert {name for name, _ in GOLDEN_GRID} == set(platform_names())


@pytest.mark.parametrize(
    "name, config", sorted(GOLDEN_GRID), ids=lambda v: str(v)
)
def test_grid_bytes_never_move(name, config):
    dataset = run_placement_grid(get_platform(name), config=CONFIGS[config])
    csv = dataset.to_csv(full_precision=True)
    digest = hashlib.sha256(csv.encode()).hexdigest()
    assert digest == GOLDEN_GRID[name, config], digest_hint()


@pytest.mark.parametrize("placement", sorted(GOLDEN_PYXIS_CURVES))
def test_pyxis_curves_never_move(pyxis, placement):
    curves = measure_curves(
        pyxis.machine,
        pyxis.profile,
        m_comp=placement[0],
        m_comm=placement[1],
        core_counts=[1, 2, 32],
    )
    assert curves_digest(curves) == GOLDEN_PYXIS_CURVES[placement], digest_hint()


@pytest.mark.parametrize("name", platform_names())
def test_one_core_past_the_socket_is_refused(name):
    platform = get_platform(name)
    cores = platform.machine.cores_per_socket
    with pytest.raises(SimulationError) as raised:
        measure_curves(
            platform.machine,
            platform.profile,
            m_comp=0,
            m_comm=0,
            core_counts=[cores + 1],
        )
    assert str(raised.value) == (
        f"{cores + 1} computing cores requested but socket 0 has only {cores}"
    )


@pytest.mark.parametrize(
    "m_comp, m_comm, core_counts, error, message",
    [
        (0, 1, [40], SimulationError,
         "40 computing cores requested but socket 0 has only 32"),
        # The sweep's first failing core count is named, not its largest.
        (0, 1, [1, 40, 50], SimulationError,
         "40 computing cores requested but socket 0 has only 32"),
        (1, 0, [0, 33], SimulationError,
         "33 computing cores requested but socket 0 has only 32"),
        # A bad node is met at the first core count that needs it.
        (0, 99, [1, 40], TopologyError,
         "machine 'pyxis' has no NUMA node 99 (valid: 0..1)"),
        (99, 1, [0, 5, 40], TopologyError,
         "machine 'pyxis' has no NUMA node 99 (valid: 0..1)"),
        (99, 1, [0, 40, 5], SimulationError,
         "40 computing cores requested but socket 0 has only 32"),
        (99, 98, [0, 3], TopologyError,
         "machine 'pyxis' has no NUMA node 98 (valid: 0..1)"),
        (0, 99, [0], TopologyError,
         "machine 'pyxis' has no NUMA node 99 (valid: 0..1)"),
        # Core counts that build are measured, then refused as curves.
        (0, 1, [0, 2], BenchmarkError, "core_counts must start at >= 1"),
        (0, 1, [2, 1], BenchmarkError,
         "core_counts must be strictly increasing"),
    ],
)
def test_a_sweep_fails_where_its_core_counts_fail(
    pyxis, m_comp, m_comm, core_counts, error, message
):
    with pytest.raises(error) as raised:
        measure_curves(
            pyxis.machine,
            pyxis.profile,
            m_comp=m_comp,
            m_comm=m_comm,
            core_counts=core_counts,
        )
    assert type(raised.value) is error
    assert str(raised.value) == message
