"""A committed sha256 of every mode's output on one small fixed instance.

The digest pins the exact bits of the selection reports (centralized,
distributed serial and on two processes, streaming), the oracle report, the
MI table, every distance row and a few scalar values. A kernel change that
claims to keep every bit must leave it as it is, and the same digest on
every supported Python and numpy build shows that the entropy table and the
reports do not depend on the build.
"""

import hashlib
import json

import numpy as np

from divsel import info
from divsel.data import dataset_from_matrices
from divsel.greedy import GreedyVariant
from divsel.info import InfoCache
from divsel.objective import ObjectiveConfig
from divsel.oracle import approximation_report
from divsel.runner import centralized_select, distributed_select, streaming_select

GOLDEN_SHA256 = "551de7d22611f4fb8d45ff22235104e397fef18dc9b6915474065cef783c7fd4"


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


def _canonical(report) -> str:
    doc = report.to_json_dict()
    doc.pop("timings_ms", None)
    doc["config"].pop("parallelism", None)
    return json.dumps(doc, sort_keys=True)


def _outputs() -> list:
    data = _instance()
    cache = InfoCache(data)
    cfg = ObjectiveConfig.weighted(cache.mi_table(), 5, 0.5, 3)
    texts = [_canonical(centralized_select(data, 5, cfg, variant)) for variant in GreedyVariant]
    texts += [_canonical(distributed_select(data, 5, cfg, m=3, seed=1, parallelism=p)) for p in (1, 2)]
    texts.append(_canonical(streaming_select(data, 5, cfg, m=3, seed=1)))
    texts.append(json.dumps(approximation_report(data, 5, cfg, 3, (0, 1, 2)).to_json_dict(), sort_keys=True))
    texts.append(cache.mi_table().tobytes().hex())
    texts += [cache.distance_block(t).tobytes().hex() for t in range(data.n_features)]
    rows = data.features
    for a, b in ((0, 10), (1, 15), (14, 16), (17, 5)):
        texts.append(info.entropy(rows[a]).hex())
        for measure in (info.joint_entropy, info.mutual_information, info.nvi_distance, info.normalized_mi):
            texts.append(measure(rows[a], rows[b]).hex())
    return texts


def test_every_output_matches_the_committed_digest():
    digest = hashlib.sha256("\n".join(_outputs()).encode()).hexdigest()
    assert digest == GOLDEN_SHA256
