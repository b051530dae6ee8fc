"""80-digit reference rates and the draws they are taken on, shared by the
rate tests.

`mp_gaussian_mi_bits` evaluates the dense Gaussian mutual information of a
user's observation covariances at 80 digits, independently of the rate
engine; the float64 engine is held to it.  `sweep_draws` is the fixed draw
rule of the accuracy sweep.  `psd_sqrt` turns a dense covariance into a
factor, for the tests that rate the dense route against the rank-P one.
"""

import numpy as np

from beamkey._util import hermitize
from beamkey.experiments import Scenario
from beamkey.keyrate import psd_eigh, rate_table


def psd_sqrt(s: np.ndarray) -> np.ndarray:
    """Hermitian square root Q of a PSD matrix, Q^H Q = Q Q = S (a factor of S)."""
    w, v = psd_eigh(s)
    return hermitize((v * np.sqrt(w)) @ v.conj().T)


def mp_gaussian_mi_bits(v_k, v_kks, k, noise_powers):
    """80-digit log det R_dl + log det R_ul - log det R_joint of user k's
    dense observation covariances, in bits, at each noise power.

    Each covariance is A^H A + s2 I for a stacked A: V_k for R_dl, every
    V_kk' for R_ul and [[V_k, V_kk], [0, J]] for R_joint.  Its determinant
    is taken through the smaller Gram matrix, det(s2 I_n + A^H A) =
    s2^(n - m) det(s2 I_m + A A^H) for an m x n matrix A, by an 80-digit
    Cholesky factorization.  The float64 V matrices are taken as exact.
    """
    import mpmath

    def gram(a):
        rows = [[mpmath.mpc(complex(x)) for x in row] for row in a]
        if len(rows) >= len(rows[0]):
            cols = list(zip(*rows))
            return [[mpmath.fdot(x, y, conjugate=True) for y in cols] for x in cols]
        return [[mpmath.fdot(y, x, conjugate=True) for y in rows] for x in rows]

    def logdet_plus(g, s2):
        n = len(g)
        low = [[None] * n for _ in range(n)]
        total = mpmath.mpf(0)
        for j in range(n):
            pivot = mpmath.re(g[j][j] + s2 - mpmath.fdot(low[j][:j], low[j][:j], conjugate=True))
            low[j][j] = mpmath.sqrt(pivot)
            total += mpmath.log(pivot)
            conj_j = [mpmath.conj(x) for x in low[j][:j]]
            for i in range(j + 1, n):
                low[i][j] = (g[i][j] - mpmath.fdot(low[i][:j], conj_j)) / low[j][j]
        return total

    others = [v for j, v in enumerate(v_kks) if j != k]
    joint = np.hstack([v_k, v_kks[k]])
    if others:
        j_stack = np.vstack(others)
        joint = np.vstack([joint, np.hstack([np.zeros_like(j_stack), j_stack])])
    with mpmath.workdps(80):
        parts = [(gram(a), a.shape[1] - min(a.shape)) for a in (v_k, np.vstack(v_kks), joint)]
        rates = []
        for noise in noise_powers:
            s2 = mpmath.mpf(float(noise))
            ld = [logdet_plus(g, s2) + extra * mpmath.log(s2) for g, extra in parts]
            rates.append(float((ld[0] + ld[1] - ld[2]) / mpmath.log(2)))
    return np.array(rates)


def runner_scenario(config, rng):
    """One trial's users, drawn the way the runners draw them."""
    return Scenario.draw(rng, config.n_paths, config.bs_antennas,
                         config.ut_antenna_list(), config.angle_mode == "on_grid")


def runner_draw(config, rng, m_e):
    """One trial's rate table, drawn and allocated the way the runners do."""
    scenario = runner_scenario(config, rng)
    return rate_table(scenario.factors, scenario.allocate(m_e, config.ut_beams))


# The accuracy sweep's SNR grid, in dB.
SWEEP_SNR_DB = np.array([-60.0, -30.0, -10.0, 0.0, 30.0, 60.0, 100.0, 150.0, 180.0, 200.0])


def sweep_draws(n_draws=60, seed=7):
    """The accuracy sweep's draws: `n_draws` (rate table, allocation,
    on_grid) triples from `default_rng(seed)`, each drawn by one rule, in
    this order:

    - U uniform on 1-4, M 16 or 32, each N_k 2 or 4, on or off grid;
    - P uniform on 1-3, capped at min N_k on grid, where paths sit on
      distinct beams;
    - m_e uniform on 1-3 and n_e uniform on 1 to min N_k, so that
      m_e * n_e < P and m_e * n_e <= 3 both occur;
    - the users and beams as the runners draw and allocate them.
    """
    rng = np.random.default_rng(seed)
    for _ in range(n_draws):
        n_users = int(rng.integers(1, 5))
        m = int(rng.choice([16, 32]))
        ut_counts = [int(n) for n in rng.choice([2, 4], size=n_users)]
        on_grid = bool(rng.integers(2))
        n_paths = int(rng.integers(1, 4))
        if on_grid:
            n_paths = min(n_paths, min(ut_counts))
        m_e = int(rng.integers(1, 4))
        n_e = int(rng.integers(1, min(ut_counts) + 1))
        scenario = Scenario.draw(rng, n_paths, m, ut_counts, on_grid)
        alloc = scenario.allocate(m_e, n_e)
        yield rate_table(scenario.factors, alloc), alloc, on_grid
