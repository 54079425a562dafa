"""Seeded run-to-run measurement variability.

The paper notes "the run-to-run variability is very low" but blames its
larger prediction errors on "unstable input data" — i.e. the calibration
curves themselves wobble.  The simulator reproduces this with a small
multiplicative log-normal perturbation on every *measurement* (never on
the underlying physics), keyed deterministically so that:

* the same (seed, measurement key) always yields the same value —
  experiments are exactly reproducible;
* different measurements decorrelate, like independent runs.

Each key's draw is ``numpy.random.default_rng(h).standard_normal()``,
where ``h`` is a 64-bit BLAKE2b hash of ``repr((seed, *key))``.  Seeding
a generator costs far more than drawing from it, so
:meth:`NoiseModel.perturbed` seeds a whole batch of keys at once instead
of building a generator per key: it runs numpy's ``SeedSequence``
mixing over every hash together, as 32-bit arithmetic on ``uint64``
arrays (:func:`_seed_words`), turns each result into the PCG64 state
``default_rng(h)`` starts from, and draws from one generator whose
state it sets per key.  The draws are ``default_rng``'s, bit for bit:
``tests/memsim/test_noise_batch.py`` holds the batch equal to the
per-key reference in ``tests/memsim/reference.py`` over drawn seeds and
keys, and to ``default_rng`` itself at the entropy edges (0, 1,
2³²−1, 2³², 2⁶⁴−1).  Key elements must stay plain Python values: a key
is hashed through its ``repr``, and ``repr(np.int64(5))`` is not
``repr(5)``.
"""

from __future__ import annotations

import hashlib
import math
from typing import Sequence

import numpy as np

from repro.errors import SimulationError

__all__ = ["NoiseModel"]

_MASK32 = 0xFFFF_FFFF
_MASK128 = (1 << 128) - 1
#: PCG64's 128-bit LCG multiplier.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """``init · multⁱ mod 2³²`` for i in 0..count, as a uint64 column."""
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * mult & _MASK32)
    return np.array(constants, dtype=np.uint64)[:, None]


# numpy's SeedSequence carries one hash constant through all of its
# mixing, and restarts it for the output: the k-th hash of each phase
# uses constants k and k + 1 of these sequences.
_MIXING = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_OUTPUT = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
#: For each pool word, the other three, in the order numpy mixes into them.
_OTHERS = [[dst for dst in range(4) if dst != src] for src in range(4)]


def _hashmix(
    value: np.ndarray, constants: np.ndarray, first: int, count: int
) -> np.ndarray:
    """Hashes ``first`` .. ``first + count - 1`` of a phase, one per row.

    Hash ``k`` is ``v ^= c[k]; v *= c[k + 1]; v ^= v >> 16`` in 32 bits.
    """
    xor = constants[first : first + count]
    mult = constants[first + 1 : first + count + 1]
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)``, one column per ``e``.

    ``entropy`` holds one 64-bit integer per element, as ``uint64``.
    Every product of two 32-bit words fits in 64 bits, so each step
    computes on ``uint64`` and masks back to 32 bits.  A 64-bit entropy
    is two words; the two zero words after them give what numpy's
    one-word form of a small entropy gives, because numpy fills its
    four-word pool by hashing zeros.
    """
    pool = np.zeros((4, entropy.size), dtype=np.uint64)
    pool[0] = entropy & _MASK32
    pool[1] = entropy >> 32
    pool = _hashmix(pool, _MIXING, 0, 4)
    for src, dst in enumerate(_OTHERS):
        # Each word is hashed once per other word, with the next
        # constants, and mixed into it.
        hashed = _hashmix(pool[src], _MIXING, 4 + 3 * src, 3)
        mixed = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashed) & _MASK32
        pool[dst] = mixed ^ mixed >> 16
    words = _hashmix(np.concatenate((pool, pool)), _OUTPUT, 0, 8)
    return words[0::2] | words[1::2] << 32


def _standard_normals(entropies: Sequence[int]) -> list[float]:
    """``default_rng(e).standard_normal()`` for each entropy ``e``.

    PCG64 seeds from the four words as ``pcg_setseq_128_srandom_r``
    does: two steps of its LCG from state 0, adding the initial state
    between them.  The generator is local to the call, so concurrent
    batches never share one.
    """
    s0, s1, s2, s3 = _seed_words(np.array(entropies, dtype=np.uint64)).tolist()
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    normals = []
    for high, low, seq_high, seq_low in zip(s0, s1, s2, s3):
        inc = ((seq_high << 64 | seq_low) << 1 | 1) & _MASK128
        state = ((inc + (high << 64 | low)) * _PCG64_MULT + inc) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        normals.append(generator.standard_normal())
    return normals


def _check_sigma(sigma: float) -> None:
    if sigma < 0.0:
        raise SimulationError(f"sigma must be non-negative, got {sigma}")


class NoiseModel:
    """Deterministic keyed multiplicative noise."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)

    @property
    def seed(self) -> int:
        return self._seed

    def _entropy(self, key: tuple[object, ...]) -> int:
        digest = hashlib.blake2b(
            repr((self._seed, *key)).encode("utf-8"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "little")

    def _factors(
        self, sigmas: Sequence[float], keys: Sequence[tuple[object, ...]]
    ) -> list[float]:
        """Each key's noise factor at its own, already checked, sigma."""
        drawn = [i for i, sigma in enumerate(sigmas) if sigma != 0.0]
        factors = [1.0] * len(sigmas)
        if drawn:
            normals = _standard_normals([self._entropy(keys[i]) for i in drawn])
            for i, z in zip(drawn, normals):
                sigma = sigmas[i]
                # Subtract sigma^2/2 so the factor has unit mean (log-normal).
                factors[i] = math.exp(sigma * z - 0.5 * sigma * sigma)
        return factors

    def factor(self, sigma: float, *key: object) -> float:
        """Multiplicative noise factor ``exp(sigma * z)`` for this key.

        ``z`` is a standard normal drawn from a generator seeded by a
        stable hash of ``(seed, *key)``.  ``sigma == 0`` returns exactly
        1.0 and draws nothing (useful to switch noise off in tests).
        """
        _check_sigma(sigma)
        return self._factors((sigma,), (key,))[0]

    def perturb(self, value: float, sigma: float, *key: object) -> float:
        """Return ``value`` perturbed by this key's noise factor."""
        return self.perturbed((value,), (sigma,), (key,))[0]

    def perturbed(
        self,
        values: Sequence[float],
        sigmas: Sequence[float],
        keys: Sequence[tuple[object, ...]],
    ) -> list[float]:
        """Each value perturbed by its key's factor at its own sigma.

        What :meth:`perturb` gives each ``(value, sigma, key)``, with
        every key's generator seeded in one batch.  Inputs are checked
        in order, each value before its sigma, so a batch refuses what
        the first refused :meth:`perturb` of a loop over it would.
        """
        for value, sigma in zip(values, sigmas):
            if value < 0.0:
                raise SimulationError(
                    f"cannot perturb negative measurement {value}"
                )
            _check_sigma(sigma)
        return [
            value * factor
            for value, factor in zip(values, self._factors(sigmas, keys))
        ]
