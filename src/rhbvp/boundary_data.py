"""Boundary data on the unit circle.

A BoundaryFunction is a 2pi-periodic function known exactly (piecewise
expressions) or through uniform samples, which are read on uniform grids
only.  Sample grids have N a power of two, N >= 16, nodes
theta_j = 2*pi*j/N.  At a junction between pieces the stored value
follows the right piece (right-continuous convention).

A DirectionField is a unit-modulus complex boundary function;
measurable_arg reduces its index, nu = zeta^w * nu0 with integer winding
w and nu0 of winding 0, and returns w with an argument of nu0.  That
argument is a periodic function with no branch cut, so downstream
conjugation treats it like any other boundary data.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, DataError, InvariantViolation, real
from .expressions import parse_expression

TWO_PI = 2.0 * np.pi
_EDGE_EPS = 1e-12  # queries within this of a junction resolve to the right piece


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


def _piece_values(pieces: Sequence[Piece], t: np.ndarray,
                  kind: str) -> np.ndarray:
    """Exact values of sorted pieces at ascending angles t.  Piece k takes
    t when lo_k <= t + _EDGE_EPS < lo_{k+1} (the ends go to the first and
    last pieces) and fills one contiguous slice from a read-only view of t."""
    out = np.empty(len(t), dtype=complex if kind == "complex" else float)
    t = t.view()
    t.flags.writeable = False
    cuts = np.searchsorted(t + _EDGE_EPS, [p.lo for p in pieces[1:]], side="left")
    for p, a, b in zip(pieces, [0, *cuts], [*cuts, len(t)]):
        if b > a:
            out[a:b] = p.fn(t[a:b])
    return out


def jump_sawtooths(N: int, c: np.ndarray, J: np.ndarray) -> np.ndarray:
    """sum_j J_j (pi - (theta - c_j) mod 2*pi)/(2*pi) on the N-node grid:
    jumps J_j at the angles c_j in [0, 2*pi).  A node takes the right value
    from _EDGE_EPS below c_j on, as _piece_values gives it to the right
    piece; the nodes before that are (theta - c_j) + 2*pi from c_j."""
    theta = grid_nodes(N)
    out = (np.dot(J, np.pi + c) - np.sum(J) * theta) / TWO_PI
    for cut, Jj in zip(np.searchsorted(theta + _EDGE_EPS, c, side="left"), J):
        out[:cut] -= Jj
    return out


def jump_limits(pieces: Sequence[Piece], samples: np.ndarray,
                inside: Sequence[float] = ()):
    """Where sorted pieces jump by more than 1e-10 * (1 + max |samples|):
    the angles mod 2*pi and the left and right values there, as three
    arrays.  At a junction lo_k (k = 0 is where the last piece wraps
    round) these are the left piece's value at its hi and the right
    piece's at lo_k; at an angle of inside off the junctions, the values
    at the floats just below and just above it, so that a piece may take
    either side at the angle itself.  A piece may be infinite at its
    end (log(2 - t) at 2): such a value is returned, without a warning."""
    def at(p, t):
        return np.asarray(p.fn(np.array([t])))[0]

    c = [p.lo % TWO_PI for p in pieces]
    a = np.unique(np.mod(np.asarray(inside, dtype=float), TWO_PI))
    los = np.array([p.lo for p in pieces])
    a = a[np.abs(wrap_angle(a[:, None] - los)).min(axis=1, initial=np.inf)
          > _EDGE_EPS]
    t = np.stack([np.nextafter(a, -np.inf), np.nextafter(a, np.inf)], axis=1)
    kind = "complex" if np.iscomplexobj(samples) else "real"
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sides = [(at(pieces[k - 1], pieces[k - 1].hi), at(p, p.lo if k else 0.0))
                 for k, p in enumerate(pieces)]
        left, right = np.concatenate(
            [np.array(sides).reshape(-1, 2),
             _piece_values(pieces, t.ravel(), kind).reshape(-1, 2)]).T
        jump = np.abs(right - left) > 1e-10 * (1.0 + np.max(np.abs(samples)))
    c = np.concatenate([c, a])
    return c[jump], left[jump], right[jump]


def _grid_values(pieces: Sequence[Piece], N: int, kind: str) -> np.ndarray:
    """_piece_values on the N-node grid; a non-finite value is a DataError."""
    samples = _piece_values(pieces, grid_nodes(N), kind)
    if not np.all(np.isfinite(samples)):
        bad = int(np.argmin(np.isfinite(samples)))
        raise DataError(f"boundary expression is non-finite at node {bad} of "
                        f"N={N} (theta={TWO_PI * bad / N:.6g})")
    return samples


def as_function(obj, var: str = "theta",
                what: str = "a boundary expression") -> tuple[Callable, str]:
    """A number, an expression string in var or a callable, as a
    vectorized function of one variable plus its source text."""
    if callable(obj):
        return obj, getattr(obj, "source", getattr(obj, "__name__", "<callable>"))
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        val = real(obj, what)
        return (lambda t: np.full(np.shape(t), val, dtype=float)), repr(val)
    if isinstance(obj, str):
        return parse_expression(obj, var=var), obj
    raise ConfigurationError(f"cannot interpret {obj!r} as {what}")


@dataclass(frozen=True)
class BoundaryFunction:
    """Periodic boundary data: samples plus optional exact piece structure.
    limits is derived, jump_limits(pieces, samples, jumps) kept read-only
    for the solve; its angles join jumps.  Sampled data have none."""

    samples: np.ndarray
    kind: str = "real"
    jumps: tuple[float, ...] = ()
    pieces: tuple[Piece, ...] | None = None
    limits: tuple = field(init=False, repr=False, compare=False)

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
        jumps = [real(a, "jumps") % TWO_PI for a in self.jumps]
        limits = (np.zeros(0),) * 3
        if self.pieces is not None:
            limits = jump_limits(self.pieces, s, jumps)
            jumps = [a % TWO_PI for a in set(jumps) | set(limits[0].tolist())]
        for a in limits:
            a.flags.writeable = False
        object.__setattr__(self, "jumps", tuple(sorted(jumps)))
        object.__setattr__(self, "limits", limits)

    @property
    def N(self) -> int:
        return len(self.samples)

    @property
    def theta(self) -> np.ndarray:
        return grid_nodes(self.N)

    def evaluate(self, theta) -> np.ndarray:
        """Exact value of piecewise data at arbitrary angles, in the shape
        of theta (a scalar for a scalar).  Right-piece convention at
        junctions; pieces see the angles stably sorted, and the values go
        back.  Sampled data are read on uniform grids only."""
        if self.pieces is None:
            raise DataError("sampled boundary data have no values off a "
                            "uniform grid; read them with on_uniform_grid")
        shape = np.shape(theta)
        t = np.mod(np.asarray(theta, dtype=float), TWO_PI).ravel()
        order = np.argsort(t, kind="stable")
        vals = _piece_values(self.pieces, t[order], self.kind)
        out = np.empty_like(vals)
        out[order] = vals
        return out.reshape(shape)[()]

    def on_uniform_grid(self, V: int) -> np.ndarray:
        """Values at theta_v = 2*pi*v/V, v = 0..V-1 (any V >= 1).

        Piecewise data is evaluated exactly.  Sampled data take their
        band-limited interpolant, frequencies -N/2..N/2 with the Nyquist
        term halved: on the V-grid exp(i*k*theta_v) depends only on
        k mod V, so the spectrum folds into V bins and one inverse FFT
        gives every value, O(N + V log V).  The fold of a real spectrum is
        Hermitian, so real data fold only into bins 0..V/2 and take a real
        inverse FFT.
        """
        if self.pieces is not None:
            return _piece_values(self.pieces, grid_nodes(V), self.kind)
        N = self.N
        if self.kind == "real":  # frequency -n is the conjugate of n
            F = np.fft.rfft(self.samples) / N
            coeff = np.concatenate([F[:0:-1].conj(), F])
        else:
            F = np.fft.fft(self.samples) / N
            coeff = np.concatenate([F[N // 2:], F[:N // 2 + 1]])
        coeff[0] *= 0.5
        coeff[-1] *= 0.5
        n = V // 2 + 1 if self.kind == "real" else V
        bins = np.arange(-(N // 2), N // 2 + 1) % V
        keep = bins < n
        folded = (np.bincount(bins[keep], coeff.real[keep], minlength=n)
                  + 1j * np.bincount(bins[keep], coeff.imag[keep], minlength=n))
        if self.kind == "real":
            return np.fft.irfft(folded, V) * V
        return np.fft.ifft(folded) * V

    def resample(self, L: int) -> "BoundaryFunction":
        """Same function on an L-node grid (L a power of two >= N), with
        its pieces and jumps: on_uniform_grid(L) of sampled data, which
        is exact for trigonometric polynomials of degree < N/2, and an
        exact evaluation of piecewise data."""
        _check_grid_size(L)
        if L == self.N:
            return self
        if L < self.N:
            raise ConfigurationError(f"resample target {L} is below current N={self.N}")
        if self.pieces is None:
            return replace(self, samples=self.on_uniform_grid(L))
        return replace(self, samples=_grid_values(self.pieces, L, self.kind))


def _piece(item) -> Piece:
    """A (lo, hi, expr) triple or a {"from", "to", "expr"} object as a Piece."""
    parts = item
    if isinstance(item, dict):
        extra = set(item) - {"from", "to", "expr"}
        if extra:
            raise ConfigurationError(
                f"unknown keys in boundary piece {item!r}: {sorted(extra)}")
        parts = (item.get("from", 0.0), item.get("to", TWO_PI), item.get("expr"))
    try:
        lo, hi, raw = parts
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"boundary piece {item!r} is neither a (from, to, expr) triple "
            f"nor a {{'from', 'to', 'expr'}} object") from None
    lo, hi = (real(b, f"a bound of boundary piece {item!r}") for b in (lo, hi))
    fn, src = as_function(raw, what=f"the expr of boundary piece {item!r}")
    return Piece(lo, hi, fn, src)


def build_boundary_function(spec, N: int, kind: str = "real",
                            jumps: Sequence[float] = ()) -> BoundaryFunction:
    """Construct boundary data from a piecewise description or samples.

    spec may be: a number (constant), an expression string, a callable
    of theta, a list of (lo, hi, expr) triples / {"from","to","expr"}
    dicts forming a partition of [0, 2pi), or a sample array of length N;
    anything else is a ConfigurationError naming the malformed piece, as
    is a piece bound or declared jump that errors.real refuses.  Declared
    jumps and the angles of BoundaryFunction.limits are the data's jumps.
    """
    _check_grid_size(N)
    if isinstance(spec, np.ndarray):
        if len(spec) != N:
            raise ConfigurationError(
                f"sample array has length {len(spec)}, expected N={N}")
        return BoundaryFunction(samples=spec, kind=kind, jumps=tuple(jumps))
    if isinstance(spec, (int, float, str)) or callable(spec):
        spec = [(0.0, TWO_PI, spec)]
    if not isinstance(spec, (list, tuple)) or not spec:
        raise ConfigurationError(
            f"boundary data must be a number, an expression or a non-empty "
            f"list of pieces, got {spec!r}")
    pieces = [_piece(item) for item in spec]
    pieces.sort(key=lambda p: p.lo)
    if abs(pieces[0].lo) > 1e-12 or abs(pieces[-1].hi - TWO_PI) > 1e-12:
        raise ConfigurationError(
            "piecewise boundary data must cover [0, 2pi) exactly")
    for a, b in zip(pieces, pieces[1:]):
        if abs(a.hi - b.lo) > 1e-12:
            raise ConfigurationError(
                f"boundary pieces do not form a partition near angle {a.hi:.6g}")
    return BoundaryFunction(samples=_grid_values(pieces, N, kind), kind=kind,
                            jumps=tuple(jumps), pieces=tuple(pieces))


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
        fn, _ = as_function(beta)
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
