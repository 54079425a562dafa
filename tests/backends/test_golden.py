"""Golden answers: every model surface's columns, pinned by digest.

For each platform at seed 1, the six calibrated backends and the
tournament router answer one fixed bulk through ``predict_columns``:
every placement × ``n`` in 0..256 and three core counts past the
tables.  Each digest covers the seven columns' dtypes, shapes and
bytes; the router's digest also covers its ``route_counts``
afterwards.  A change to any model's arithmetic, to the placement
selection, to the router's choice of winner or to how it counts routes
moves a digest.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.backends.tournament import TournamentRouter, run_platform_tournament
from repro.topology import platform_names

CORE_COUNTS = [*range(257), 300, 1000, 4096]

#: ``(platform, surface) -> sha256`` recorded before the backends
#: answered from tables; the answers must not move by one bit.
GOLDEN = {
    ("henri", "threshold"): (
        "e88cd2bb06ad5c42610a3281265f9250c5cf965dd556322794fb16b5eea0baee"
    ),
    ("henri", "naive"): (
        "51a6cf60aba79e401a6f8dd4e28370b562d8f69c63482a9ab8c447807059e549"
    ),
    ("henri", "queueing-ps"): (
        "06f910d28a069b6e8cf688c39f00ca97def8ec9f69ec66124807ab801d6b09aa"
    ),
    ("henri", "langguth-threadfair"): (
        "0407d69f0cfcbb4e710b2bced1c8e16a887412dc7a3ae0b4ff8e5407fd676685"
    ),
    ("henri", "overlap-afzal"): (
        "93c5a296da4c85d6a1980fb22c647e3dfea5434c3f12c6de83b41c7028f06842"
    ),
    ("henri", "cxlmem-messagefree"): (
        "4cfc489e93af62a3fe37a738c0bbf69f7439c3ff66f31c5dbb33a38547bd05aa"
    ),
    ("henri", "tournament"): (
        "acbadd6233d29a0536faf53a34749fce69161e4aa47a600cbffc44cbe7f13c13"
    ),
    ("henri-subnuma", "threshold"): (
        "0de725cafb2c11e7e84a3dd2f58a7ba254bf55ebecaead0fc66afc894b6c948b"
    ),
    ("henri-subnuma", "naive"): (
        "afa972813ac8639a193818c21ab5dcda5a57e9b967fee0812efb32ee60120fb9"
    ),
    ("henri-subnuma", "queueing-ps"): (
        "3e79f9bc151e3852e2761d8286a464da5d16369af8f1423d58f7773775ed03de"
    ),
    ("henri-subnuma", "langguth-threadfair"): (
        "bb2c2529753a4756f8012f09621e0de55b2700efc9b3c951bf96dc2ea2313f2f"
    ),
    ("henri-subnuma", "overlap-afzal"): (
        "7bbe10955764a96f2a8d971a1026b87dfd4c9545f37efe73285a857d60ac122d"
    ),
    ("henri-subnuma", "cxlmem-messagefree"): (
        "8e9d6492c65265e40083c0e8a714e496b3f2424bd62c142a40315311dc0eabfb"
    ),
    ("henri-subnuma", "tournament"): (
        "fb035585cd7124a16014af5a7c7cd42530d44ebf224c164491a3132354a21405"
    ),
    ("dahu", "threshold"): (
        "4188123902aac6d7087b2a2cd34b02c743109906526c85a6e696bc8f9dc43a6a"
    ),
    ("dahu", "naive"): (
        "7aefdd3d418ca2ef7b9118301f1c54a4f42e6232d245808ec2c5a46ce5995f04"
    ),
    ("dahu", "queueing-ps"): (
        "7d2b082af53d1c3648e00ab8bc33358a493d99fc6fab466ff73c991793abd634"
    ),
    ("dahu", "langguth-threadfair"): (
        "73b79be999cd1a249ff8d8852f87472fdd942b07292f78dd4d0fd3f9b98b543f"
    ),
    ("dahu", "overlap-afzal"): (
        "871b918283d4b71220fa88da69da5507902e12dcc77e4dc18b07419752c5ba81"
    ),
    ("dahu", "cxlmem-messagefree"): (
        "04fb0a6070a91811189697723d92cd383bdcaf66c685013dd63f3c84d57b1af9"
    ),
    ("dahu", "tournament"): (
        "536dea9f15450a7a31df90730fdf29dc61bd0cdf56c64f9648d5467c1bdedec5"
    ),
    ("diablo", "threshold"): (
        "ca1d6f0633eea87e7810d4c45315064ea9f1ff0171f2f79d8028c720f528f080"
    ),
    ("diablo", "naive"): (
        "46d1698680d243dab6166e1bdc8257abc024b5e302394c0b28230332d4f1046f"
    ),
    ("diablo", "queueing-ps"): (
        "bbaa55f9105d581bcb10fbfb24e7963c51ca8e318cb5b7d2fc06059aa29c3276"
    ),
    ("diablo", "langguth-threadfair"): (
        "f854f17d95547e6748c5b6060352bd9623a023804d475ec8a5dc4e5f6bc4d960"
    ),
    ("diablo", "overlap-afzal"): (
        "ebdeb0f9c1659b381af66a579460a2f2f9e5f3b19b389a5009ae1385c058f5c8"
    ),
    ("diablo", "cxlmem-messagefree"): (
        "3a5e0da4c20839d1ab2ffc3a1cc0afe844f21e0260f326ec2a810e40318ebb7f"
    ),
    ("diablo", "tournament"): (
        "b0d29c10c4afe7af7ba7f2d151a72e160f5a3ef38df4dd22ae5a40b5db67b5ac"
    ),
    ("pyxis", "threshold"): (
        "a2b4f2c0298a6607c8f53b0840a7fdb57abbe616fe1aff31b7b6be30f302abd4"
    ),
    ("pyxis", "naive"): (
        "d1082e8d2733146cdf52ce9ced2ddc5a6ec1e13333193e5d2ea472e65f8b8d3f"
    ),
    ("pyxis", "queueing-ps"): (
        "96bac0a8529100a73eb108fc29b9cdd6f87a5b4d6c9479b24dd42443dfd48ecd"
    ),
    ("pyxis", "langguth-threadfair"): (
        "701644160defb70b752ba214aef14fcf7054d7539468020d20b9cfb5196903f0"
    ),
    ("pyxis", "overlap-afzal"): (
        "7f722427aee20f2b5bdd2c2812c4cb2c0693c5ce5fa8e849821570433c6bf44a"
    ),
    ("pyxis", "cxlmem-messagefree"): (
        "e3acff6836017af4a73620f876e205f053dc9455812f0366eba836fc4ba21391"
    ),
    ("pyxis", "tournament"): (
        "d9d2eec62afda4a8131c4a64d1ffba517986ffc91dd63bcbf5ae2ab79aed361a"
    ),
    ("occigen", "threshold"): (
        "b87b98aaf04435ac686e4d44efe20c57a26a30b11756d0410bbe4770c03bfb6e"
    ),
    ("occigen", "naive"): (
        "05aa48ffa4a67b565ab037b77cb0faea90718167f83eac30c2eb98d1c36274e8"
    ),
    ("occigen", "queueing-ps"): (
        "2efbbb24f81bbd8fbd1441729ebf9c58ead2734c7846d4d4f17cb1914cc766be"
    ),
    ("occigen", "langguth-threadfair"): (
        "5ff1918ec27b157a5bfb220c9643f9a1633fc41b27f279b463df19d65bfe11e1"
    ),
    ("occigen", "overlap-afzal"): (
        "efe6ed465980c6a6f1736f7348f02e92412c8ec0db4c1a91072400f83118dc5d"
    ),
    ("occigen", "cxlmem-messagefree"): (
        "09fdbe33712e425200c600da73255456d9e606fc79435ab52ab34a8dda8004e7"
    ),
    ("occigen", "tournament"): (
        "4228cdd20fe62dbf02a2a9a6c41926ae1a4026a174a97da2408f08227fd85aa7"
    ),
}


def _queries(k: int) -> np.ndarray:
    return np.array(
        [
            (n, m_comp, m_comm)
            for m_comp in range(k)
            for m_comm in range(k)
            for n in CORE_COUNTS
        ],
        dtype=np.int64,
    )


def _digest(columns: dict[str, np.ndarray], extra: object = None) -> str:
    sha = hashlib.sha256()
    for name, column in columns.items():
        sha.update(f"{name}:{column.dtype.str}:{column.shape}".encode())
        sha.update(np.ascontiguousarray(column).tobytes())
    if extra is not None:
        sha.update(json.dumps(extra, sort_keys=True).encode())
    return sha.hexdigest()


def _surface_digests(experiment, config) -> dict[str, str]:
    run = run_platform_tournament(experiment, config=config)
    queries = _queries(experiment.model.n_numa_nodes)
    digests = {
        backend_id: _digest(model.predict_columns(queries))
        for backend_id, model in run.calibrated.items()
    }
    router = TournamentRouter(run.tournament, run.calibrated)
    columns = router.predict_columns(queries)
    digests["tournament"] = _digest(columns, dict(router.route_counts))
    return digests


@pytest.mark.parametrize("platform", platform_names())
def test_every_surface_answers_its_golden_columns(
    platform, all_experiments, seeded_config
):
    digests = _surface_digests(all_experiments[platform], seeded_config)
    assert len(digests) == 7
    for surface, digest in digests.items():
        assert digest == GOLDEN[(platform, surface)], (platform, surface)
