# Solution paths: how the fit moves (or refuses to move) with the tuning.
#
# Two path plots worth knowing:
#   * versus xi (the ridge initializer strength): the selected support should
#     be flat over a wide interval, which is why no xi search is needed;
#   * versus lambda (the reweighting strength): supports shrink as lambda
#     grows, and ln(n) sits in a long stable stretch.

import numpy as np

import sparsecox as sc

truth = [0.20, 0, 0.35, 0, 0.50, 0.55, 0, 0, 0.70, 0.80]
scenario = sc.SimScenario(n=300, p=100, beta0=truth, design="ar1:0.5",
                          censoring=0.2, seed=301)
ds = sc.simulate(scenario)

# --- xi path: 25 log-spaced values over five decades -----------------------
xi_grid = np.logspace(-3, 2, 25)
xi_path = sc.path_over(ds, "xi", xi_grid, sc.BarConfig(lambda_rule="bic"))
supports = [tuple(int(j) + 1 for j in f.support) for f in xi_path.fits]
print("xi grid spans [1e-3, 1e2]")
print(f"distinct supports along the xi path: {len(set(supports))}")
print(f"support: {supports[0]}")

xi_path.to_csv("path_xi.csv")
print("wrote path_xi.csv")

# --- lambda path ------------------------------------------------------------
lam_grid = np.unique(np.concatenate([
    np.logspace(-1, 1.5, 20), [np.log(ds.n), np.log(ds.event_count)]
]))
lam_path = sc.path_over(ds, "lambda", lam_grid, sc.BarConfig(lambda_rule="bic"))
print("\n lambda    df   BIC")
for lam, fit in zip(lam_path.tunings, lam_path.fits):
    tag = ""
    if abs(lam - np.log(ds.n)) < 1e-12:
        tag = "   <- ln(n)"
    elif abs(lam - np.log(ds.event_count)) < 1e-12:
        tag = "   <- ln(events)"
    print(f"  {lam:7.3f}  {fit.df:3d}  {fit.bic:9.2f}{tag}")

lam_path.to_csv("path_lambda.csv")
print("wrote path_lambda.csv")

# --- grid search, if you insist: the BIC argmin along the lambda path -------
grid_fit = lam_path.fits[int(np.argmin([f.bic for f in lam_path.fits]))]
print(f"\ngrid-searched lambda = {grid_fit.lam:.3f} "
      f"(BIC {grid_fit.bic:.2f}, df {grid_fit.df}); "
      f"fixed ln(n) = {np.log(ds.n):.3f}")
