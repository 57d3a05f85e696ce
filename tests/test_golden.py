"""A committed sha256 of every mode's output on one small fixed instance.

The digest pins the exact bits of the selection reports (centralized,
distributed serial and on two processes, streaming), the oracle report, the
MI table, every distance row and a few scalar values. A kernel change that
claims to keep every bit must leave it as it is, and the same digest on
every supported Python and numpy build shows that the entropy table and the
reports do not depend on the build. A second instance holds a column of more
than 64 values, so the groups holding it have no bit planes and its joint
tables are counted by sorting codes.
"""

import hashlib
import json

import numpy as np

from divsel import info
from divsel.data import RAW_CODES, Dataset, canonicalize, dataset_from_matrices
from divsel.greedy import GreedyVariant
from divsel.info import InfoCache
from divsel.objective import ObjectiveConfig
from divsel.oracle import approximation_report
from divsel.runner import centralized_select, distributed_select, streaming_select

GOLDEN_SHA256 = "551de7d22611f4fb8d45ff22235104e397fef18dc9b6915474065cef783c7fd4"
WIDE_SHA256 = "8064e31f851b0d97fb8eb1245482d77a20632dc5c4a7ab8bb361c113fb310af2"


def _instance():
    """30 features x 300 instances (so counts need uint16), 3 labels: noisy
    label copies, duplicates, a constant column, columns of 2 to 6 values
    and three of 24 values, whose joint tables with most targets are wider
    than the packed-bit path takes."""
    rng = np.random.default_rng(27)
    n = 300
    labels = rng.integers(0, 2, size=(3, n))
    feats = rng.integers(0, 1 << 20, size=(30, n)) % rng.integers(2, 7, size=(30, 1))
    feats[:10] = labels[rng.integers(0, 3, size=10)] ^ (rng.random((10, n)) < 0.2)
    feats[10:14] = feats[0:4]
    feats[14] = 0
    feats[15:18] = rng.integers(0, 24, size=(3, n))
    return dataset_from_matrices(feats, labels)


def _wide_instance():
    """24 features x 200 instances, 2 labels: noisy label copies, duplicates,
    a constant column, columns of 2 to 6 values, two of 24 values and one of
    90 values (feature 13, kept unbinned), so every group holding it is too
    wide for bit planes."""
    rng = np.random.default_rng(28)
    n = 200
    labels = rng.integers(0, 2, size=(2, n))
    feats = rng.integers(0, 1 << 20, size=(24, n)) % rng.integers(2, 7, size=(24, 1))
    feats[:8] = labels[rng.integers(0, 2, size=8)] ^ (rng.random((8, n)) < 0.2)
    feats[8:10] = feats[0:2]
    feats[10] = 0
    feats[11:13] = rng.integers(0, 24, size=(2, n))
    feats[13] = rng.permutation(n) % 90
    codes = canonicalize(feats, RAW_CODES)[0]
    return Dataset(codes, [f"f{i}" for i in range(24)], labels, ["y0", "y1"], n)


def _canonical(report) -> str:
    doc = report.to_json_dict()
    doc.pop("timings_ms", None)
    doc["config"].pop("parallelism", None)
    return json.dumps(doc, sort_keys=True)


def _outputs(data, k, pairs) -> list:
    cache = InfoCache(data)
    cfg = ObjectiveConfig.weighted(cache.mi_table(), k, 0.5, 3)
    texts = [_canonical(centralized_select(data, k, cfg, variant)) for variant in GreedyVariant]
    texts += [_canonical(distributed_select(data, k, cfg, m=3, seed=1, parallelism=p)) for p in (1, 2)]
    texts.append(_canonical(streaming_select(data, k, cfg, m=3, seed=1)))
    texts.append(json.dumps(approximation_report(data, k, cfg, 3, (0, 1, 2)).to_json_dict(), sort_keys=True))
    texts.append(cache.mi_table().tobytes().hex())
    texts += [cache.distance_block(t).tobytes().hex() for t in range(data.n_features)]
    rows = data.features
    for a, b in pairs:
        texts.append(info.entropy(rows[a]).hex())
        for measure in (info.joint_entropy, info.mutual_information, info.nvi_distance, info.normalized_mi):
            texts.append(measure(rows[a], rows[b]).hex())
    return texts


def _digest(texts) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def test_every_output_matches_the_committed_digest():
    assert _digest(_outputs(_instance(), 5, ((0, 10), (1, 15), (14, 16), (17, 5)))) == GOLDEN_SHA256


def test_wide_columns_keep_their_bits():
    # pairs wide x narrow, wide x 24 values, narrow x wide and narrow x narrow
    data = _wide_instance()
    assert int(data.feature_cards.max()) == 90
    assert _digest(_outputs(data, 4, ((13, 0), (13, 11), (3, 13), (0, 8), (4, 14)))) == WIDE_SHA256
