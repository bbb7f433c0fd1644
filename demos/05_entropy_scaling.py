"""Entropy scaling across the three cutoff regimes.

Keeping nearly the whole graph (ell = 3) pins the entropy at the constant
2 ln 2 - (3/4) ln 3; filling nearly all modes (K = 3) sends it to zero like
log(n)/n; the volume cuts (ell = 1, 2) grow linearly in n with the same
constant as slope.  The spectra come from the Terwilliger modules of each
order's intersection array, so no graph is built and the sweep reaches the
Sylvester cap, order 4096, in milliseconds.
"""

import math

from fermigraph import HadamardSpectra, entropy, entropy_sweep
from fermigraph.entangle import ENTROPY_CONSTANT

orders = [4, 16, 64, 256, 1024, 4096]
pairs = [(1, 3), (2, 3), (3, 3), (1, 1), (1, 2), (2, 2)]

print(f"constant 2ln2 - (3/4)ln3 = {ENTROPY_CONSTANT:.6f}\n")
print(f"{'n':>4} {'K':>2} {'ell':>3} {'S':>12} {'S/n':>10} "
      f"{'S*4n/ln n':>11}  limit")
for row in entropy_sweep(orders, pairs):
    delta = "" if row.limit_delta is None else f"  (delta {row.limit_delta:+.5f})"
    print(f"{row.order:>4} {row.energy_cut:>2} {row.neighbourhood_cut:>3} "
          f"{row.entropy:>12.6f} {row.entropy_per_order:>10.6f} "
          f"{row.entropy_log_scaled:>11.4f}  {row.limit_label}{delta}")

n = orders[-1]
spectrum = HadamardSpectra(n).spectrum(3, 3)
print(f"\nThe near-full-filling spectrum at n = {n} is {spectrum}:")
print("one partly filled mode at 1/(4n), so S(3,3) is its binary entropy and")
print("S*4n normalized by ln(n) converges to 1 only slowly; dividing by "
      "ln(4n) instead gives", end=" ")
print(f"{entropy(spectrum) * 4 * n / math.log(4 * n):.4f} at n = {n}.")
