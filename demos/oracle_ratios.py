"""
How close does greedy get to the true optimum?
==============================================

On instances small enough to cover every k-subset, compare both greedy
variants and a handful of seeded distributed runs against the exact
optimum. The oracle finds it by bound and prune: it values only the
subsets an upper bound cannot rule out, with the result of valuing them
all. AltGreedy is guaranteed half; in practice everything lands far above
its floor.
"""

import numpy as np

from divsel.data import dataset_from_matrices
from divsel.info import InfoCache
from divsel.objective import ObjectiveConfig
from divsel.oracle import approximation_report

rng = np.random.default_rng(21)
n, d, t = 24, 12, 2
labels = rng.integers(0, 2, size=(t, n))
feats = rng.integers(0, 3, size=(d, n))
feats[0] = labels[0]
feats[1] = labels[1]
data = dataset_from_matrices(feats, labels)

cfg = ObjectiveConfig.weighted(InfoCache(data).mi_table(), 4, 0.5, 10)
rep = approximation_report(data, 4, cfg, m=3, seeds=[0, 1, 2, 3, 4])
print("optimum        :", rep.opt_ids, f"value {rep.opt_value:.4f}")
print("greedy ratio   :", f"{rep.greedy_ratio:.4f}")
print("altgreedy ratio:", f"{rep.altgreedy_ratio:.4f}  (floor 0.5)")
for run in rep.distributed:
    print(f"  distributed seed {run['seed']}: ratio {run['ratio']:.4f}  (floor {1 / 31:.4f})")
print("mean distributed ratio:", f"{rep.mean_distributed_ratio:.4f}")
