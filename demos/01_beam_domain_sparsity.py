"""Beam-domain sparsity of multipath massive MIMO channels.

A channel with a handful of propagation paths looks dense on the antennas but
nearly sparse after projection onto the beam grid: each path concentrates
into the beams nearest its angles.  This script synthesizes one channel,
transforms it, and prints where the energy went.

Run:  python demos/01_beam_domain_sparsity.py
"""

import numpy as np

from beamkey import (
    beam_covariance_factor,
    sample_paths,
    sampling_matrix,
    synthesize_channel,
    to_beam_domain,
)

M, N, N_PATHS = 64, 4, 4
rng = np.random.default_rng(7)

paths = sample_paths(N_PATHS, rng)
h = synthesize_channel(paths, M, N)
beam = to_beam_domain(h, sampling_matrix(N), sampling_matrix(M))

print(f"channel: {N}x{M}, {N_PATHS} paths at sines "
      + ", ".join(f"{s:+.3f}" for s in np.sin(paths.aod)))
print(f"Frobenius norm before/after transform: "
      f"{np.linalg.norm(h):.6f} / {np.linalg.norm(beam):.6f}")

energy = np.abs(beam) ** 2
total = energy.sum()
flat = np.argsort(energy, axis=None)[::-1]
print("\nstrongest beam-domain entries (receive beam, transmit beam, share of energy):")
cumulative = 0.0
for rank in range(8):
    n_idx, m_idx = np.unravel_index(flat[rank], energy.shape)
    share = energy[n_idx, m_idx] / total
    cumulative += share
    print(f"  #{rank + 1}: ({n_idx:2d}, {m_idx:3d})  {100 * share:5.1f}%   "
          f"cumulative {100 * cumulative:5.1f}%")

_, bs_gains, _ = beam_covariance_factor(paths, M, N)
top = np.sort(bs_gains)[::-1]
print(f"\ntransmit-beam gain profile: top-4 beams hold "
      f"{100 * top[:4].sum() / bs_gains.sum():.1f}% of the mean channel power,")
print(f"top-8 hold {100 * top[:8].sum() / bs_gains.sum():.1f}% "
      f"(dense channel spread across {M} antennas otherwise)")
