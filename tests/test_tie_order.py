"""The golden-digest hint tells a host's tie order from the recorded one."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from tests.tie_order import RECORDED_TIE_ORDER, digest_hint, tie_order

ROOT = Path(__file__).resolve().parents[1]

#: The numpy switch that turns off the AVX2 and AVX-512 sorts.
NO_SIMD_SORT = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"


def test_the_hint_matches_the_host_order():
    if tie_order() == RECORDED_TIE_ORDER:
        assert "the answer itself changed" in digest_hint()
    else:
        assert "ROADMAP.md item 2" in digest_hint()


@pytest.mark.skipif(
    platform.machine().lower() not in {"x86_64", "amd64"},
    reason="the switch names x86 SIMD targets",
)
def test_without_the_simd_sort_the_hint_names_the_host():
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_SIMD_SORT)
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "from tests.tie_order import digest_hint, tie_order\n"
            "print(list(tie_order()))\n"
            "print(digest_hint())",
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stdout.splitlines()
    assert out[0] != str(list(RECORDED_TIE_ORDER))
    assert f"in the order {out[0]}" in out[1]
    assert "ROADMAP.md item 2" in out[1]
