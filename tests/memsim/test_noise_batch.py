"""A batch of noise draws gives exactly the per-key generators' draws.

:class:`repro.memsim.NoiseModel` seeds all of a batch's generators at
once, by its own vectorised ``SeedSequence``, instead of building a
``numpy.random.default_rng`` per key.  Every measured byte depends on
those draws, so they are compared as bits: against the per-key code in
``tests/memsim/reference.py`` over drawn seeds, keys and sigmas, and
against ``default_rng`` itself at the edges of the 64-bit entropy.
"""

from __future__ import annotations

import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.memsim import NoiseModel
from repro.memsim.noise import _standard_normals
from tests.memsim import reference

ENTROPY_EDGES = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)

key_parts = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.text(max_size=12),
    st.sampled_from(("comp_alone", "comm_alone", "comp_par", "comm_par")),
)
keys = st.lists(key_parts, max_size=6).map(tuple)
sigmas = st.one_of(
    st.just(0.0), st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
)
values = st.one_of(
    st.just(1.0), st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
)


def bits(floats) -> list[int]:
    return np.array(floats, dtype=np.float64).view(np.int64).tolist()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=-(2**64), max_value=2**64),
    draws=st.lists(st.tuples(values, sigmas, keys), min_size=1, max_size=40),
)
def test_a_batch_draws_what_each_key_drew_alone(seed, draws):
    noise, expected = NoiseModel(seed), reference.NoiseModel(seed)
    batch = noise.perturbed(*(list(column) for column in zip(*draws)))
    assert bits(batch) == bits(
        [expected.perturb(value, sigma, *key) for value, sigma, key in draws]
    )
    for value, sigma, key in draws[:3]:
        assert bits([noise.factor(sigma, *key)]) == bits(
            [expected.factor(sigma, *key)]
        )
        assert bits([noise.perturb(value, sigma, *key)]) == bits(
            [expected.perturb(value, sigma, *key)]
        )


def test_the_seeding_is_default_rngs_at_the_entropy_edges():
    rng = random.Random(11)
    entropies = [*ENTROPY_EDGES, *(rng.getrandbits(64) for _ in range(500))]
    expected = [np.random.default_rng(e).standard_normal() for e in entropies]
    assert bits(_standard_normals(entropies)) == bits(expected)
    for e in ENTROPY_EDGES:
        assert bits(_standard_normals([e])) == bits(
            [np.random.default_rng(e).standard_normal()]
        )


def test_zero_sigma_is_exactly_one_and_draws_nothing():
    noise = NoiseModel(4)
    assert noise.factor(0.0, "k") == 1.0
    got = noise.perturbed(
        [2.0, 3.0, 4.0], [0.0, 0.05, 0.0], [("a",), ("b",), ("c",)]
    )
    assert got[0] == 2.0 and got[2] == 4.0
    assert got[1] == reference.NoiseModel(4).perturb(3.0, 0.05, "b")
    assert noise.perturbed([], [], []) == []


def test_errors_match_a_loop_of_single_calls():
    noise = NoiseModel(0)
    with pytest.raises(
        SimulationError, match=r"^sigma must be non-negative, got -0\.1$"
    ):
        noise.perturbed([1.0, 2.0], [0.1, -0.1], [("a",), ("b",)])
    with pytest.raises(
        SimulationError, match=r"^cannot perturb negative measurement -1\.0$"
    ):
        noise.perturbed([2.0, -1.0], [0.1, 0.1], [("a",), ("b",)])
    # Each value is checked before its sigma, and the first bad input
    # decides, as in a loop of ``perturb`` calls.
    with pytest.raises(SimulationError, match="negative measurement"):
        noise.perturb(-1.0, -0.1, "k")
    with pytest.raises(SimulationError, match="sigma must be non-negative"):
        noise.perturbed([1.0, -1.0], [-0.1, 0.1], [("a",), ("b",)])
    with pytest.raises(SimulationError, match="sigma must be non-negative"):
        noise.factor(-0.1, "k")


def test_threads_drawing_batches_get_the_serial_answers():
    noise = NoiseModel(9)
    batches = []
    for i in range(8):
        keys = [("henri", i, n, mode) for n in range(1, 19) for mode in "ab"]
        values = [float(k) for k in range(len(keys))]
        batches.append((values, [0.004 * (1 + i % 3)] * len(keys), keys))
    expected = [noise.perturbed(*batch) for batch in batches]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(noise.perturbed, *batch)
                for _ in range(4)
                for batch in batches
            ]
            answers = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(answers, expected * 4):
        assert bits(got) == bits(want)
