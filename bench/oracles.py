"""Independent references the benchmark checks the program against.

Nothing here imports the package under test. The SLTB likelihood is
rebuilt from ``scipy.stats.beta`` and spot-checked with mpmath; the
convergence diagnostics follow Vehtari, Gelman, Simpson, Carpenter and
Buerkner (2021), "Rank-normalization, folding, and localization: an
improved R-hat", Bayesian Analysis 16(2).
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy import stats
from scipy.special import expit

S_DEFAULT = 1.0 + 10.0 ** -8.5
L_DEFAULT = 1e-9


# ---------------------------------------------------------------------------
# SLTB log-density and likelihood
# ---------------------------------------------------------------------------

def sltb_logpdf_ref(g, mu, phi, s=S_DEFAULT, l=L_DEFAULT):
    """Row log-densities of the SLTB law at responses g in [0, 1].

    log f(g) = log beta.pdf(x; a, b) - log s - log(F(1/s + l) - F(l)),
    with x = g/s + l. Rows with x above 1/2 are evaluated through the
    mirrored law Beta(b, a) at 1 - x, and 1 - x is formed as
    (s - g - l*s)/s, so boundary rows keep their precision.
    """
    g, mu, phi = np.broadcast_arrays(np.asarray(g, float),
                                     np.asarray(mu, float),
                                     np.asarray(phi, float))
    a, b = mu * phi, (1.0 - mu) * phi
    x = g / s + l
    one_minus_x = (s - g - l * s) / s
    upper = x > 0.5
    dens = np.where(upper,
                    stats.beta.logpdf(one_minus_x, b, a),
                    stats.beta.logpdf(x, a, b))
    eps_hi = (s - 1.0 - l * s) / s  # 1 - (1/s + l)
    outside = stats.beta.cdf(l, a, b) + stats.beta.cdf(eps_hi, b, a)
    return dens - np.log(s) - np.log1p(-outside)


def design_study(x1, x2):
    """Design of the study formula y ~ x1 + x2 + x1:x2, built by hand."""
    x1 = np.asarray(x1, float)
    x2 = np.asarray(x2, float)
    return np.column_stack([np.ones_like(x1), x1, x2, x1 * x2])


def loglik_ref(theta, X, y, s=S_DEFAULT, l=L_DEFAULT):
    """SLTB regression log-likelihood at theta = (beta..., log phi)."""
    theta = np.asarray(theta, float)
    mu = expit(X @ theta[:-1])
    return float(np.sum(sltb_logpdf_ref(y, mu, np.exp(theta[-1]), s, l)))


def warm_start_ref(X, y, l=L_DEFAULT):
    """Least squares on the logit of the clamped response, phi = 10."""
    lo = max(l, 1e-12)
    z = np.clip(y, lo, 1.0 - lo)
    beta, *_ = np.linalg.lstsq(X, np.log(z / (1.0 - z)), rcond=None)
    return np.append(beta, np.log(10.0))


def sltb_logpdf_mpmath(g, mu, phi, s=S_DEFAULT, l=L_DEFAULT, dps=40):
    """One row of the SLTB log-density in mpmath arithmetic."""
    import mpmath as mp

    with mp.workdps(dps):
        g, mu, phi, s, l = (mp.mpf(float(v)) for v in (g, mu, phi, s, l))
        a, b = mu * phi, (1 - mu) * phi
        x = g / s + l
        log_beta_pdf = ((a - 1) * mp.log(x) + (b - 1) * mp.log(1 - x)
                        - mp.log(mp.beta(a, b)))
        mass = mp.betainc(a, b, l, 1 / s + l, regularized=True)
        return float(log_beta_pdf - mp.log(s) - mp.log(mass))


# ---------------------------------------------------------------------------
# convergence diagnostics
# ---------------------------------------------------------------------------

def _split(chains):
    chains = np.atleast_2d(np.asarray(chains, float))
    half = chains.shape[1] // 2
    return np.vstack([chains[:, :half], chains[:, chains.shape[1] - half:]])


def _rank_normalize(chains):
    ranks = stats.rankdata(chains, method="average").reshape(chains.shape)
    return stats.norm.ppf((ranks - 0.375) / (chains.size + 0.25))


def _autocov(x):
    """Autocovariance of one chain at every lag, via FFT."""
    n = x.size
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x - x.mean(), size)
    return np.fft.irfft(f * np.conj(f), size)[:n] / n


def split_rhat(chains):
    """Rank-normalized split-R-hat of an (m chains, n draws) array."""
    z = _rank_normalize(_split(chains))
    n = z.shape[1]
    w = z.var(axis=1, ddof=1).mean()
    b = n * z.mean(axis=1).var(ddof=1)
    var_plus = (n - 1) / n * w + b / n
    return float(np.sqrt(var_plus / w))


def bulk_ess(chains):
    """Rank-normalized bulk effective sample size of (m, n) draws.

    Multi-chain autocorrelations are truncated with Geyer's initial
    monotone positive-pair sequence.
    """
    z = _rank_normalize(_split(chains))
    m, n = z.shape
    acov = np.array([_autocov(c) for c in z])
    w = acov[:, 0].mean() * n / (n - 1)
    var_plus = w * (n - 1) / n + z.mean(axis=1).var(ddof=1)
    rho = 1.0 - (w - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    pairs = rho[:-1:2] + rho[1::2]
    pos = np.flatnonzero(pairs <= 0.0)
    pairs = pairs[:pos[0]] if pos.size else pairs
    pairs = np.minimum.accumulate(pairs)
    tau = -1.0 + 2.0 * pairs.sum()
    return float(m * n / max(tau, 1.0 / np.log10(m * n)))


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()
