"""Degree distributions need not be discrete: any density on a finite
interval works.  At construction it is reduced to Gauss-Legendre nodes, after
which every computation (self-consistency solve, band edges, detached
eigenvalues, sampling) runs exactly as in the atomic case, just with more
nodes.
"""
import pathlib

import numpy as np

from netspectra import (DegreeModel, band_edges, density_grid,
                        empirical_density, l1_distance, leading_eigenvalue,
                        leading_eigenvalue_approx)
from netspectra.svgplot import render_svg

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

# uniform expected degrees on [50, 150]
model = DegreeModel.uniform(50.0, 150.0, nodes=128)
print(f"mean degree    = {model.mean_degree():g}")
print(f"<k^2>          = {model.moment(2):.2f}")
print(f"excess mean    = {model.excess_distribution().mean_degree():.4f} "
      f"(= <k^2>/<k>)")

lo, hi = band_edges(model)
print(f"band edges     = ({lo:.4f}, {hi:.4f})")
print(f"leading eig    = {leading_eigenvalue(model):.4f} "
      f"(moment ratio {leading_eigenvalue_approx(model):.4f})")

curve = density_grid(model, lo - 3.0, hi + 3.0, 801, eta=1e-6)
print(f"norm defect    = {curve.norm_defect:.2e}")

hist = empirical_density(model, n=1200, replicates=8, bins=70, base_seed=3)
print(f"L1 distance    = {l1_distance(hist, model):.4f}  (n=1200, 8 replicates)")

render_svg(OUT / "uniform_degrees.svg",
           curves=[(curve.z, curve.rho, "#d62728")],
           steps=(hist.bin_edges, hist.density),
           title="uniform degree density on [50, 150]")
print(f"wrote {OUT / 'uniform_degrees.svg'}")
