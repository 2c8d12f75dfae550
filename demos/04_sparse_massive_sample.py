# Rare events, mostly-zero binary covariates, large n: the storage and the
# solver kernels that make this tractable.
#
# The design below would need n * p * 8 bytes = 1.6 GB as a dense matrix;
# the coordinate-list storage holds only the ~0.8M nonzero entries.  Risk-set
# sums are prefix sums in the descending-time order, and each coordinate
# update touches only its column's nonzero rows.

import resource
import time

import numpy as np

import sparsecox as sc

truth = np.concatenate([
    np.full(6, 0.7), np.full(6, 0.5), np.full(6, 1.0),
    np.full(6, -0.7), np.full(6, -0.5), np.full(6, -1.0),
])
scenario = sc.SimScenario(
    n=100_000,
    p=2_000,
    beta0=truth,
    design="binary:0.98",   # 98% of entries are zero, the rest are 1
    censoring=0.95,         # rare events
    seed=33,
)

t0 = time.perf_counter()
ds = sc.simulate(scenario)
print(f"simulated in {time.perf_counter() - t0:.1f}s: "
      f"n={ds.n:,}, p={ds.p:,}, events={ds.event_count:,}, "
      f"nonzeros={ds.design.nnz():,} "
      f"({ds.design.nnz() / (ds.n * ds.p):.1%} of a dense matrix)")

t0 = time.perf_counter()
fit = sc.fit_bar(ds, sc.BarConfig(lambda_rule="bic"))
elapsed = time.perf_counter() - t0

recovered = sorted(set(fit.support.tolist()) & set(range(36)))
noise = sorted(set(fit.support.tolist()) - set(range(36)))
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"fit in {elapsed:.0f}s ({fit.outer_iterations} reweighting steps, "
      f"{fit.sweeps} ridge Newton iterations and sweeps); peak memory {peak:.0f} MB "
      f"vs {ds.n * ds.p * 8 / 2**20:.0f} MB for dense storage")
print(f"recovered {len(recovered)} of 36 signals, {len(noise)} noise columns")
print(f"BIC={fit.bic:.1f}")
