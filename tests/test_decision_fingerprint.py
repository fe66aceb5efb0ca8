"""Forest-decision fingerprint: seeded streams per mode, hashed.

A refactor that claims to change no placement, rewire, replacement or
tie decision must leave these hashes as they are.  Each hash covers the
forest's parent and size arrays, the cover counts in 2ec mode and the
index's counters, taken every 100 ops of a 3,000-op insert/delete
stream.  The stream grows for its first half and shrinks for its
second, so it makes tree inserts, rewires, replacements and splits
alike.  On 200 vertices the trees grow large; on 12 they stay small, so
deletions there also cut trees into equal halves and reach the tie
rules.  A change that moves decisions on purpose records the new hashes
here and says why.
"""

import hashlib
import random

import pytest

from dynconn.workload import _LiveEdges, new_index

OPS = 3000
SEED = 20

FINGERPRINTS = {
    ("conn", 200): "1887ee43694dd41632b352b1c2a72a20d9028f2c236fa64e4c6190ba77a3be66",
    ("2ec", 200): "821bb6fbf2413c221e85d7a8f01965fee609c3ecbe4c4f04347ba8deea3a8c39",
    ("conn", 12): "96b768c22e036f264385600d2937a385bbd81602751eeebbb63a4e21d57db099",
    ("2ec", 12): "a7ddbd31d10763c57fcad34df0f0e289d31ca35ef4e97b527eccf9d05af1b66a",
}


def fingerprint(mode, n):
    idx = new_index(n, mode)
    f = idx.forest
    live = _LiveEdges(n)
    rng = random.Random(SEED)
    h = hashlib.sha256()
    for step in range(OPS):
        inserting = rng.random() < (0.65 if step < OPS // 2 else 0.4)
        live.mutate(rng, inserting, idx.insert, idx.delete)
        if step % 100 == 99:
            h.update(repr((f.parent, f.size, getattr(f, "rep", None),
                           idx.counters())).encode())
    return h.hexdigest(), idx.counters()


@pytest.mark.parametrize("mode, n", sorted(FINGERPRINTS))
def test_forest_decisions_match_the_recorded_fingerprint(mode, n):
    digest, counters = fingerprint(mode, n)
    # the stream must reach every kind of decision for the hash to pin it
    assert counters["rewires"] > 0
    assert 0 < counters["splits"] < counters["tree_deletes"]
    assert digest == FINGERPRINTS[(mode, n)]
