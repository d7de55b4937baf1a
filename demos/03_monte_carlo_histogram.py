"""
Monte Carlo spacing histogram on a fine grid
============================================

Thin grid(50000) with p = 0.1 over and over, histogram the first scaled
spacing, and overlay the geometric limit law.  With 20000+ retained
spacings the empirical mass hugs p (1-p)**(d-1) to a few parts in a
hundred, and the KS distance lands well under 0.02.

Writes monte_carlo_histogram.png next to this script when matplotlib is
available; always prints the head of the histogram table.
"""

import pathlib

import spacings as sp

n, p, i, trials, seed = 50_000, 0.1, 1, 20_500, 4242

print(f"sampling grid({n}) with p={p}, {trials} trials, seed={seed} ...")
emp = sp.collect_empirical(n, p, i, trials, seed)
report = sp.ks_to_geometric(emp, p)
print(f"retained spacings: {int(emp.total)}   discarded trials: {emp.discarded}")
print(f"KS distance to Geometric({p}): {report.ks:.4f}   TV: {report.tv:.4f}\n")

d, counts, mass = emp.atoms, emp.counts, emp.masses  # the spacings seen and their tallies
limit = sp.limit_pmf(p, d)

print(f"{'d':>4} {'count':>7} {'empirical':>11} {'limit':>11}")
for k in range(12):
    print(f"{d[k]:>4} {int(counts[k]):>7} {mass[k]:>11.5f} {limit[k]:>11.5f}")
print("  ...")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not installed; skipping the plot")
else:
    fig, ax = plt.subplots(figsize=(7, 4.2))
    ax.bar(d, mass, width=0.9, color="#9ecae1", label="empirical density")
    ax.plot(d, limit, "o-", ms=3, lw=1.2, color="#d62728",
            label=f"geometric, p = {p}")
    ax.set_xlim(0, 60)
    ax.set_xlabel("scaled spacing d (grid steps)")
    ax.set_ylabel("mass")
    ax.set_title(f"Scaled spacings of the thinned grid, n = {n}, p = {p}")
    ax.legend()
    out = pathlib.Path(__file__).with_name("monte_carlo_histogram.png")
    fig.savefig(out, dpi=150, bbox_inches="tight")
    print(f"\nwrote {out}")
