"""Effective sample size by Sokal's windowed integrated autocorrelation time.

    tau(M) = 1 + 2 * sum_{t=1..M} rho(t)

with the window M the smallest lag satisfying M >= c * tau(M) (Sokal,
"Monte Carlo methods in statistical mechanics", 1997; c = 5 is his
recommendation, SOKAL_C below). ESS = n / tau.
"""

import numpy as np

SOKAL_C = 5.0


def autocorrelation(x):
    """Normalized autocorrelation rho(t), t = 0..n-1, through a padded FFT."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    d = x - x.mean()
    f = np.fft.rfft(d, 2 * n)
    acov = np.fft.irfft(f * np.conj(f))[:n]
    if acov[0] <= 0.0:
        return None  # constant series
    return acov / acov[0]


def integrated_time(x):
    """Sokal's windowed integrated autocorrelation time of a 1-D series.

    A constant series has no measurable mixing; it gets tau = n, so its
    ESS is 1.
    """
    rho = autocorrelation(x)
    if rho is None:
        return float(len(x))
    taus = 2.0 * np.cumsum(rho) - 1.0
    short = np.arange(len(taus)) < SOKAL_C * taus
    window = int(np.argmin(short)) if not short.all() else len(taus) - 1
    return float(taus[window])


def effective_size(x):
    return len(x) / integrated_time(x)
