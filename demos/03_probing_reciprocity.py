"""Two-way probing: both ends observe the same effective channel.

The base station sends precoded pilots downlink; terminals answer through the
conjugate combiners.  Noiseless, the two vectorized estimates agree exactly
(channel reciprocity); with noise they stay strongly correlated, which is the
randomness the secret key is distilled from.  Pilot reuse needs only
m_e + n_e pilot slots instead of M + sum(N_k).

Run:  python demos/03_probing_reciprocity.py
"""

import numpy as np

from beamkey import (
    Scenario,
    dimension_reduction_factor,
    downlink_probe,
    pilot_overhead,
    synthesize_channel,
    uplink_probe,
    vectorize_observations,
)

M, N, N_PATHS, M_E, N_E = 64, 4, 4, 4, 4
rng = np.random.default_rng(11)

scenario = Scenario.draw(rng, N_PATHS, M, [N])
alloc = scenario.allocate(M_E, N_E)
channel = [synthesize_channel(scenario.paths[0], M, N)]

print(f"full channel: {N}x{M} = {N * M} coefficients; probed effective channel: "
      f"{N_E}x{M_E} = {N_E * M_E}")
print(f"dimension reduction factor: {dimension_reduction_factor(M, N, M_E, N_E):.1f}x")
print(f"pilot overhead: reused = {pilot_overhead('reused', M, [N], M_E, N_E)} slots, "
      f"traditional = {pilot_overhead('traditional', M, [N], M_E, N_E)} slots")

z_dl = downlink_probe(channel, alloc, 0.0)[0]
z_ul = uplink_probe(channel, alloc, 0.0)[0]
v_dl, v_ul = vectorize_observations(z_dl, z_ul)
print(f"\nnoiseless: max |z_dl - z_ul| = {np.max(np.abs(v_dl - v_ul)):.2e}")

for snr_db in (0, 10, 20):
    noise = 10 ** (-snr_db / 10)
    noise_rng = np.random.default_rng(snr_db)
    num = den_d = den_u = 0.0
    for _ in range(2000):
        zd = downlink_probe(channel, alloc, noise, noise_rng)[0]
        zu = uplink_probe(channel, alloc, noise, noise_rng)[0]
        v_dl, v_ul = vectorize_observations(zd, zu)
        num += np.vdot(v_dl, v_ul).real
        den_d += np.linalg.norm(v_dl) ** 2
        den_u += np.linalg.norm(v_ul) ** 2
    print(f"snr {snr_db:3d} dB: downlink/uplink correlation = "
          f"{num / np.sqrt(den_d * den_u):.4f}")
