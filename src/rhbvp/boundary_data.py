"""Boundary data on the unit circle.

A BoundaryFunction is a 2pi-periodic function known exactly (piecewise
expressions) or through uniform samples.  Sample grids have N a power of
two, N >= 16, nodes theta_j = 2*pi*j/N.  At a junction between pieces
the stored value follows the right piece (right-continuous convention).

A DirectionField is a unit-modulus complex boundary function;
measurable_arg reduces its index, nu = zeta^w * nu0 with integer winding
w and nu0 of winding 0, and returns w with an argument of nu0.  That
argument is a periodic function with no branch cut, so downstream
conjugation treats it like any other boundary data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, DataError, InvariantViolation
from .expressions import parse_expression

TWO_PI = 2.0 * np.pi
_EDGE_EPS = 1e-12  # queries within this of a junction resolve to the right piece
_BLOCK_TERMS = 1 << 16  # phase-matrix entries per _interp block: 1 MiB


def _check_grid_size(N: int) -> None:
    if not isinstance(N, (int, np.integer)) or N < 16 or (N & (N - 1)) != 0:
        raise ConfigurationError(
            f"grid size N must be a power of two with N >= 16, got {N!r}")


def grid_nodes(N: int) -> np.ndarray:
    return TWO_PI * np.arange(N) / N


def wrap_angle(x):
    """Reduce to [-pi, pi)."""
    return np.mod(np.asarray(x, dtype=float) + np.pi, TWO_PI) - np.pi


@dataclass(frozen=True)
class Piece:
    lo: float
    hi: float
    fn: Callable
    source: str = ""


def _as_piece_fn(obj) -> tuple[Callable, str]:
    if callable(obj):
        return obj, getattr(obj, "source", getattr(obj, "__name__", "<callable>"))
    if isinstance(obj, (int, float)):
        val = float(obj)
        return (lambda t: np.full(np.shape(t), val, dtype=float)), repr(val)
    if isinstance(obj, str):
        return parse_expression(obj), obj
    raise ConfigurationError(f"cannot interpret {obj!r} as a boundary expression")


@dataclass(frozen=True)
class BoundaryFunction:
    """Periodic boundary data: samples plus optional exact piece structure."""

    samples: np.ndarray
    kind: str = "real"
    jumps: tuple[float, ...] = ()
    pieces: tuple[Piece, ...] | None = None

    def __post_init__(self):
        s = np.asarray(self.samples)
        _check_grid_size(len(s))
        if not np.all(np.isfinite(s)):
            raise DataError("boundary samples contain non-finite values")
        if self.kind not in ("real", "complex"):
            raise DataError(f"kind must be 'real' or 'complex', got {self.kind!r}")
        if self.kind == "real":
            if np.iscomplexobj(s) and np.max(np.abs(s.imag)) > 1e-12:
                raise DataError("real-kind boundary function has complex samples")
            s = np.asarray(s.real if np.iscomplexobj(s) else s, dtype=float)
        else:
            s = np.asarray(s, dtype=complex)
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "jumps", tuple(sorted(float(a) % TWO_PI for a in self.jumps)))

    @property
    def N(self) -> int:
        return len(self.samples)

    @property
    def theta(self) -> np.ndarray:
        return grid_nodes(self.N)

    # -- internal helpers -------------------------------------------------

    def _interp(self, theta: np.ndarray) -> np.ndarray:
        """Band-limited trigonometric interpolant of the samples.

        The phase matrix is built in row blocks of at most _BLOCK_TERMS
        entries, so memory stays bounded whatever len(theta) is.
        """
        coeff = self._spectrum()
        freqs = np.arange(-(self.N // 2), self.N // 2 + 1)
        rows = max(1, _BLOCK_TERMS // len(freqs))
        vals = np.empty(len(theta), dtype=complex)
        for lo in range(0, len(theta), rows):
            t = theta[lo:lo + rows]
            vals[lo:lo + rows] = np.exp(1j * np.multiply.outer(t, freqs)) @ coeff
        return vals.real if self.kind == "real" else vals

    def _spectrum(self) -> np.ndarray:
        """Interpolant coefficients at frequencies -N/2..N/2 (Nyquist halved)."""
        N = self.N
        F = np.fft.fft(self.samples) / N
        coeff = np.concatenate([F[N // 2:], F[:N // 2 + 1]])
        coeff[0] *= 0.5
        coeff[-1] *= 0.5
        return coeff

    def _eval_pieces(self, t: np.ndarray) -> np.ndarray:
        """Exact piece values at angles in [0, 2pi), right-piece convention."""
        los = np.array([p.lo for p in self.pieces])
        idx = np.searchsorted(los, t + _EDGE_EPS, side="right") - 1
        idx = np.clip(idx, 0, len(self.pieces) - 1)
        out = np.empty(len(t), dtype=complex if self.kind == "complex" else float)
        for k, p in enumerate(self.pieces):
            m = idx == k
            if np.any(m):
                out[m] = p.fn(t[m])
        return out

    # -- public API --------------------------------------------------------

    def evaluate(self, theta) -> np.ndarray:
        """Value at arbitrary angles: exact for piecewise data, band-limited
        interpolation otherwise.  Right-piece convention at junctions."""
        t = np.mod(np.asarray(theta, dtype=float), TWO_PI)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        out = self._eval_pieces(t) if self.pieces is not None else self._interp(t)
        return out[0] if scalar else out

    def on_uniform_grid(self, V: int) -> np.ndarray:
        """Values at theta_v = 2*pi*v/V, v = 0..V-1 (any V >= 1).

        Equal to evaluate(grid_nodes(V)) at O(N + V log V) cost: on the
        V-grid exp(i*k*theta_v) depends only on k mod V, so the
        interpolant's spectrum folds into V bins and one inverse FFT
        gives every value.  Piecewise data is evaluated exactly.
        """
        if self.pieces is not None:
            return self._eval_pieces(grid_nodes(V))
        coeff = self._spectrum()
        bins = np.arange(-(self.N // 2), self.N // 2 + 1) % V
        folded = (np.bincount(bins, coeff.real, minlength=V)
                  + 1j * np.bincount(bins, coeff.imag, minlength=V))
        vals = np.fft.ifft(folded) * V
        return vals.real if self.kind == "real" else vals

    def resample(self, L: int) -> "BoundaryFunction":
        """Same function on an L-node grid (L a power of two >= N).

        Piecewise data is re-evaluated exactly; sampled data is resampled
        band-limitedly, which is exact for trigonometric polynomials of
        degree < N/2.
        """
        _check_grid_size(L)
        if L == self.N:
            return self
        if L < self.N:
            raise ConfigurationError(f"resample target {L} is below current N={self.N}")
        if self.pieces is not None:
            return build_boundary_function(
                [(p.lo, p.hi, p.fn) for p in self.pieces], L, kind=self.kind)
        F = np.fft.fft(self.samples)
        G = np.zeros(L, dtype=complex)
        half = self.N // 2
        G[:half] = F[:half]
        G[L - half + 1:] = F[half + 1:]
        G[half] = 0.5 * F[half]
        G[L - half] = 0.5 * F[half]
        up = np.fft.ifft(G) * (L / self.N)
        return replace(self, samples=up.real if self.kind == "real" else up)


def build_boundary_function(spec, N: int, kind: str = "real",
                            jumps: Sequence[float] = ()) -> BoundaryFunction:
    """Construct boundary data from a piecewise description or samples.

    spec may be: a number (constant), an expression string, a callable
    of theta, a list of (lo, hi, expr) triples / {"from","to","expr"}
    dicts forming a partition of [0, 2pi), or a sample array of length N.
    Junctions where the piece values disagree are recorded as jumps.
    """
    _check_grid_size(N)
    if isinstance(spec, np.ndarray):
        if len(spec) != N:
            raise ConfigurationError(
                f"sample array has length {len(spec)}, expected N={N}")
        return BoundaryFunction(samples=spec, kind=kind, jumps=tuple(jumps))
    if isinstance(spec, (int, float, str)) or callable(spec):
        spec = [(0.0, TWO_PI, spec)]
    pieces = []
    for item in spec:
        if isinstance(item, dict):
            extra = set(item) - {"from", "to", "expr"}
            if extra:
                raise ConfigurationError(
                    f"unknown keys in boundary piece: {sorted(extra)}")
            lo, hi, raw = item.get("from", 0.0), item.get("to", TWO_PI), item["expr"]
        else:
            lo, hi, raw = item
        fn, src = _as_piece_fn(raw)
        pieces.append(Piece(float(lo), float(hi), fn, src))
    pieces.sort(key=lambda p: p.lo)
    if abs(pieces[0].lo) > 1e-12 or abs(pieces[-1].hi - TWO_PI) > 1e-12:
        raise ConfigurationError(
            "piecewise boundary data must cover [0, 2pi) exactly")
    for a, b in zip(pieces, pieces[1:]):
        if abs(a.hi - b.lo) > 1e-12:
            raise ConfigurationError(
                f"boundary pieces do not form a partition near angle {a.hi:.6g}")
    theta = grid_nodes(N)
    samples = np.empty(N, dtype=complex if kind == "complex" else float)
    los = np.array([p.lo for p in pieces])
    idx = np.clip(np.searchsorted(los, theta + _EDGE_EPS, side="right") - 1,
                  0, len(pieces) - 1)
    for k, p in enumerate(pieces):
        m = idx == k
        if np.any(m):
            samples[m] = p.fn(theta[m])
    if not np.all(np.isfinite(samples)):
        bad = int(np.flatnonzero(~np.isfinite(samples))[0])
        raise DataError(f"boundary expression is non-finite at node {bad} "
                        f"(theta={theta[bad]:.6g})")
    # junction angles where left limit and right value disagree are jumps
    scale = 1.0 + float(np.max(np.abs(samples)))
    detected = []
    for k, p in enumerate(pieces):
        left = pieces[k - 1]
        right_val = np.asarray(p.fn(np.array([p.lo if k else 0.0])))[0]
        left_val = np.asarray(left.fn(np.array([left.hi])))[0]
        if abs(right_val - left_val) > 1e-10 * scale:
            detected.append(p.lo % TWO_PI)
    all_jumps = sorted(set(float(j) % TWO_PI for j in jumps) | set(detected))
    return BoundaryFunction(samples=samples, kind=kind,
                            jumps=tuple(all_jumps), pieces=tuple(pieces))


@dataclass(frozen=True)
class DirectionField:
    """Unit-modulus boundary direction field."""

    base: BoundaryFunction

    def __post_init__(self):
        if self.base.kind != "complex":
            raise DataError("direction field requires complex-kind boundary data")
        dev = np.max(np.abs(np.abs(self.base.samples) - 1.0))
        if dev > 1e-12:
            raise InvariantViolation(
                f"direction field is not unit-modulus (max deviation {dev:.3e})")

    @property
    def N(self) -> int:
        return self.base.N

    @property
    def theta(self) -> np.ndarray:
        return self.base.theta

    @property
    def samples(self) -> np.ndarray:
        return self.base.samples

    @classmethod
    def from_samples(cls, samples: np.ndarray,
                     jumps: Sequence[float] = ()) -> "DirectionField":
        s = np.asarray(samples, dtype=complex)
        if 1e-12 < np.max(np.abs(np.abs(s) - 1.0)) <= 1e-8:
            s = s / np.abs(s)  # renormalize tiny drift from upstream arithmetic
        return cls(BoundaryFunction(samples=s, kind="complex", jumps=tuple(jumps)))

    @classmethod
    def from_angle(cls, beta, N: int) -> "DirectionField":
        """Direction field nu = exp(i*beta(theta)) from an angle function."""
        fn, _ = _as_piece_fn(beta)
        vals = np.exp(1j * np.asarray(fn(grid_nodes(N)), dtype=float))
        return cls(BoundaryFunction(samples=vals, kind="complex"))


def measurable_arg(nu: DirectionField) -> tuple[int, BoundaryFunction]:
    """Index reduction nu = zeta^w * nu0 of a direction field.

    Returns the integer winding w of nu and alpha0, an argument of
    nu0 = nu * zeta^-w: exp(i*(alpha0 + w*theta_j)) = nu(theta_j) at every
    node.  nu0 has winding 0, so alpha0 is periodic and needs no cut; its
    jumps are those of nu plus the nodes where the unwrapped argument
    still moves by more than pi.
    """
    raw = np.angle(nu.samples)
    inc = wrap_angle(np.diff(np.concatenate([raw, raw[:1]])))
    w = int(np.round(np.sum(inc) / TWO_PI))
    alpha0 = np.unwrap(wrap_angle(raw - w * nu.theta))
    # anchor alpha0 within a half turn of 0 at its median
    alpha0 -= TWO_PI * np.round(np.median(alpha0) / TWO_PI)
    err = np.max(np.abs(np.exp(1j * (alpha0 + w * nu.theta)) - nu.samples))
    if err > 1e-9:
        raise InvariantViolation(
            f"argument reconstruction failed: max |exp(i*alpha) - nu| = {err:.3e}")
    wraps = nu.theta[np.flatnonzero(np.abs(np.diff(alpha0)) > np.pi) + 1]
    return w, BoundaryFunction(samples=alpha0, kind="real",
                               jumps=tuple(set(nu.base.jumps) | set(wraps.tolist())))
