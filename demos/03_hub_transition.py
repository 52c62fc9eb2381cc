"""One vertex of unusually high expected degree ("hub") splits a pair of
eigenvalues off the band -- but only past a critical degree.

For a background of constant degree c the detached value is
k_n / sqrt(k_n - c) and the transition sits exactly at k_n = 2c.  Below it,
the top of the spectrum stays pinned at the band edge 2 sqrt(c).
"""
import pathlib

import numpy as np

from netspectra import (DegreeModel, band_edges, ensemble_hub_top,
                        hub_critical_degree, hub_eigenvalues, hub_pairs)
from netspectra.svgplot import render_svg

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

c = 100.0
model = DegreeModel.poisson(c)
edge = band_edges(model)[1]
k_crit = hub_critical_degree(model)
print(f"band edge      = {edge:g}")
print(f"critical degree = {k_crit:.6f}  (expect 2c = {2 * c:g})")

kns = np.linspace(110.0, 400.0, 30)
z_plus = hub_pairs(model, kns)[1]  # NaN at or below the critical degree
pred = np.where(np.isnan(z_plus), edge, z_plus)

print("\n   kn   predicted   sampled (n=1000, 10 reps)")
samples = []
for kn in (120.0, 180.0, 240.0, 320.0, 400.0):
    mean, stderr = ensemble_hub_top(model, kn, n=1000, replicates=10,
                                    base_seed=int(kn))
    samples.append((kn, mean))
    target = hub_eigenvalues(model, kn)
    shown = target.z_plus if target.exists else edge
    print(f"  {kn:5.0f}   {shown:9.4f}   {mean:.4f} +/- {stderr:.4f}")

xs = np.array([s[0] for s in samples])
ys = np.array([s[1] for s in samples])
render_svg(OUT / "hub_transition.svg",
           curves=[(kns, pred, "#d62728"),
                   (kns, np.full_like(kns, edge), "#777777"),
                   (np.repeat(xs, 3), np.column_stack(
                       [ys - 0.02, ys + 0.02, ys]).ravel(), "#1f77b4")],
           title="top modularity eigenvalue vs hub degree")
print(f"\nwrote {OUT / 'hub_transition.svg'}")
