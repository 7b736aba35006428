"""Communication cost of simulating a noisy bit channel, by block length.

The shared set holds roughly 2^(n(C+eps/2)) strings, so its index costs
about n(C+eps/2) bits, and a miss falls back to sending the raw block.
As n grows the miss probability and the per-symbol cost both shrink
toward the capacity line. Desk-scale block lengths only show the trend's
beginning: by the exact fallback law, the mean cost first enters the
window at block length 47, and the overshoot probability first drops
under 10% at block length 145.
"""

from qcap import ProtocolConfig, bsc_capacity, cost_statistics

p, eps, trials = 0.1, 0.25, 2000
cap = bsc_capacity(p)
print(f"bit-flip channel p = {p}, capacity C = {cap:.4f} bits, eps = {eps}")
print(f"{trials} trials per block length, input fixed to the zero block\n")
print(f"{'n':>4} {'mean bits/symbol':>17} {'P(cost > C+eps)':>16} "
      f"{'fallback rate':>14}")
for n in (8, 16, 24, 32):
    cfg = ProtocolConfig(n=n, eps=eps, variant="bsc")
    cs = cost_statistics(p, cfg, trials, ("fixed", [0] * n), seed=10)
    print(f"{n:>4} {cs['mean_bits_per_symbol']:>17.4f} "
          f"{cs['p_exceed']:>16.4f} {cs['fallback_rate']:>14.4f}")
print(f"\ntarget window: [{cap:.4f}, {cap + eps:.4f}] bits/symbol")
