"""Real boundary transforms against a dense DFT written out term by term.

The package computes these with real FFTs (rfft/irfft); the reference
here sums the definitions directly, with every angle reduced exactly as
the integer n*l mod L before scaling, and without BLAS products.
"""

from functools import lru_cache

import numpy as np
import pytest

from rhbvp.boundary_data import BoundaryFunction, grid_nodes
from rhbvp.disk_harmonic import analytic_coefficients, conjugate_boundary
from rhbvp.errors import ConfigurationError

DENSE_N = [16, 64, 1024]
TOL = 1e-13


def _dense_series(c, L):
    """sum_n c_n exp(2*pi*i*n*l/L) at l = 0..L-1, in blocks of rows."""
    n = np.arange(len(c))
    out = np.empty(L, dtype=complex)
    for lo in range(0, L, 1024):
        ll = np.arange(lo, min(lo + 1024, L))
        phase = np.exp(2j * np.pi * (np.multiply.outer(ll, n) % L) / L)
        out[lo:lo + len(ll)] = (phase * c).sum(axis=1)
    return out


@lru_cache
def _data(N):
    """Random real samples s with explicit Nyquist content (-1)^j, and
    their dense DFT F_n = (1/N) sum_j s_j exp(-2*pi*i*j*n/N), n = 0..N/2."""
    rng = np.random.default_rng(N)
    s = rng.standard_normal(N) + 0.75 * np.cos(N // 2 * grid_nodes(N))
    return s, np.conj(_dense_series(s.astype(complex), N))[:N // 2 + 1] / N


def _coefficients(N):
    """c_0 = F_0, c_n = 2 F_n for 0 < n < N/2: the analytic completion."""
    c = _data(N)[1][:N // 2].copy()
    c[1:] *= 2.0
    return c


def _interpolant(N, V):
    """Band-limited interpolant of the samples at 2*pi*v/V: frequencies
    below N/2 twice (conjugate pairs), the Nyquist term
    F_{N/2} cos(N/2 theta) once."""
    F = _data(N)[1]
    w = np.full(len(F), 2.0)
    w[0] = w[-1] = 1.0
    return _dense_series(w * F, V).real


@pytest.mark.parametrize("N", DENSE_N)
def test_analytic_coefficients_match_dense_dft(N):
    s = _data(N)[0]
    got = analytic_coefficients(s)
    assert len(got) == N // 2
    assert np.max(np.abs(got - _coefficients(N))) <= TOL


@pytest.mark.parametrize("factor", [1, 8])
@pytest.mark.parametrize("N", DENSE_N)
def test_conjugate_boundary_matches_dense_series(N, factor):
    s = _data(N)[0]
    L = factor * N
    H = conjugate_boundary(BoundaryFunction(samples=s), L=L).samples
    assert H.shape == (L,) and H.dtype == float
    assert np.max(np.abs(H - _dense_series(_coefficients(N), L).imag)) <= TOL


@pytest.mark.parametrize("L", [64, 512])
@pytest.mark.parametrize("k", [1, 5, 31])
def test_conjugate_of_cos_k_is_sin_k(k, L):
    bf = BoundaryFunction(samples=np.cos(k * grid_nodes(64)))
    H = conjugate_boundary(bf, L=L).samples
    assert np.max(np.abs(H - np.sin(k * grid_nodes(L)))) <= TOL


def test_conjugate_boundary_rejects_grid_below_series_length():
    # L = 32 would hold the 32 terms, but every grid below the data's is
    # refused
    bf = BoundaryFunction(samples=_data(64)[0])
    for L in (16, 32):
        with pytest.raises(ConfigurationError, match="below N=64"):
            conjugate_boundary(bf, L=L)


@pytest.mark.parametrize("N", DENSE_N)
def test_real_on_uniform_grid_matches_dense_interpolant(N):
    s = _data(N)[0]
    bf = BoundaryFunction(samples=s)
    for V in (N // 2, 3 * N // 2 + 1, 8 * N):
        vals = bf.on_uniform_grid(V)
        assert vals.dtype == float
        assert np.max(np.abs(vals - _interpolant(N, V))) <= TOL


@pytest.mark.parametrize("N", DENSE_N)
def test_real_resample_matches_dense_interpolant(N):
    s = _data(N)[0]
    up = BoundaryFunction(samples=s, jumps=(1.0,)).resample(8 * N)
    assert up.kind == "real" and up.jumps == (1.0,)
    assert up.samples.dtype == float
    assert np.max(np.abs(up.samples - _interpolant(N, 8 * N))) <= TOL
