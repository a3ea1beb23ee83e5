"""Euler-Maruyama simulation of the closed loop and its error process.

The scheme, every coefficient at the left endpoint t_i of the step and
L = (Sigma H^T + C K^T) N^{-1} the filter gain:

  u_i        = policy(t_i, Xhat_i)
  X_{i+1}    = X_i + (A X_i + B u_i + a) h + C dW_i + D dW'_i
  dV_i       = H (X_i - Xhat_i) h + K dW_i
  Xhat_{i+1} = Xhat_i + (A Xhat_i + B u_i + a) h + L dV_i

The kernel steps it as two chains, since the error Xtil = X - Xhat never
sees the control.  First the policy-free error chain (curlyA = A - L H,
Delta = L K - C), which simulate_error_direct also runs alone:

  Xtil_0 = 0,  Xtil_{i+1} = (I + h curlyA_i) Xtil_i - Delta_i dW_i + D_i dW'_i

then dV_i = h H Xtil_i + K dW_i at all nodes, then the filter chain

  Xhat_{i+1} = (I + h A_i) Xhat_i + h B_i u_i + (h a_i + L_i dV_i)

with its bracket written for all nodes before the loop, and last
X = Xhat + Xtil: the scheme up to roundoff, at four per-node products per
feedback step.  All-node terms are written into the output buffers, so a
call allocates little beyond them.  It returns X, Xhat, u, dV and the
costs, from value.path_cost; the control law, Theta Xhat - R^{-1}(B^T phi
+ r) and its variants, lives only in _policy_controls.  Noise is keyed by
(seed, path_index), so any path can be redrawn alone.

Every path array has the shape (paths, nodes, width): paths on the
leading axis, one path for the public functions.  The kernel's noise and
outputs are stored node-major (_node_major), as transposed views of
(nodes, paths, width) buffers, so each step of the two chains reads and
writes one contiguous per-node slab [:, i] instead of `paths` strided
rows.  The storage order changes no number: no per-path product goes
through BLAS matmul, whose kernel depends on the batch size; per-node
products are two-operand np.einsum, all-node ones _add_matvec or
value._matvec, each contracting a path in the same order in any batch
and any layout; and every sum over nodes (path_cost's, and verify's
increment sums) runs on path-major data.  So for every n a path's
outputs and cost are bitwise the same alone, in any batch and at any
chunk size.

Path files, and cli's series.csv, are CSV of %.17g numbers.
_format_rows_17g writes a whole float block at once in numpy, byte for
byte what '%.17g' % x gives: the 17 correctly rounded digits from a
double-double product with a table of powers of ten, built on first use,
then the %g layout as bytes.  A cell goes to '%.17g' % x alone when the
fast path cannot prove its digits: NaN, infinities, subnormals and |x|
outside (1e-290, 1e290), a product that is not finite, and a fraction
within 1e-6 of one half, which covers every tie.  Zeros stay on the fast
path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .detsolve import DeterministicSolution
from .errors import NonFinite, ShapeMismatch
from .model import ModelSpec, Dimensions, TimeGrid
from .model import interp_table  # noqa: F401  bench/tracer.py counts its calls here by name
from .model import table_at_nodes  # noqa: F401  bench/tracer.py wraps it here by name
from .value import _matvec, path_cost

__all__ = [
    "NoiseDraw",
    "ControlPolicy",
    "PathBundle",
    "draw_noise",
    "simulate_closed_loop",
    "simulate_error_direct",
    "bundle_to_csv",
]

_M64 = (1 << 64) - 1

try:  # np.einsum's C core, without the Python wrapper's microsecond per call
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # a numpy without the private name: the same numbers
    _einsum = np.einsum


@functools.cache
def _rekeyable():
    """A Philox generator and its fresh state, made on first use (numpy.random loads lazily)."""
    gen = np.random.Generator(np.random.Philox(key=0))
    return gen, gen.bit_generator.state


@dataclass(frozen=True)
class NoiseDraw:
    """Brownian increments over one grid; each entry has variance h."""

    grid: TimeGrid
    dW: np.ndarray   # (steps, d) common noise
    dWp: np.ndarray  # (steps, k) state-only noise


def draw_noise(seed: int, path_index: int, grid: TimeGrid, dims: Dimensions,
               out: np.ndarray | None = None) -> NoiseDraw:
    """Increments for one path from a Philox stream keyed by (seed, path_index).

    The key fixes the whole stream, so the same arguments reproduce the
    same draw bitwise no matter how many other paths were drawn, in what
    order, or on how many workers: a fresh Philox(key=(path_index << 64)
    | seed), here one generator re-keyed per call (not thread-safe).  The
    stream's first steps*d normals, times sqrt(h), are dW and the next
    steps*k are dWp; both are views of out, a contiguous float array of
    steps*(d+k) entries, if it is given.
    """
    if path_index < 0:
        raise ValueError(f"path_index must be >= 0, got {path_index}")
    gen, fresh = _rekeyable()
    fresh["state"]["key"] = np.array([int(seed) & _M64, int(path_index) & _M64],
                                     dtype=np.uint64)
    gen.bit_generator.state = fresh
    z = gen.standard_normal(grid.steps * (dims.d + dims.k), out=out)
    z *= math.sqrt(grid.h)
    cut = grid.steps * dims.d
    return NoiseDraw(grid, z[:cut].reshape(grid.steps, dims.d),
                     z[cut:].reshape(grid.steps, dims.k))


# policy kind -> the scenario field of the table it reads, if any
_POLICY_KINDS = {"filter_feedback": None, "zero": None,
                 "open_loop": "table", "perturbed_feedback": "offset"}


@dataclass(frozen=True)
class ControlPolicy:
    """Admissible control law fed to the simulator.

    kind is a key of _POLICY_KINDS, and a table is given exactly when the
    kind reads one: the per-node controls of 'open_loop', one per node of
    the grid, or the offset that 'perturbed_feedback' adds to the optimal
    feedback, grid-aligned or a single constant m-vector.
    """

    kind: str
    table: np.ndarray | None = None
    label: str = ""

    def __post_init__(self):
        if self.kind not in _POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        reads = _POLICY_KINDS[self.kind]
        if (self.table is None) != (reads is None):
            raise ValueError(f"policy kind {self.kind!r} reads {reads or 'no table'}")
        if self.table is not None:
            object.__setattr__(self, "table", np.asarray(self.table, dtype=float))
        if not self.label:
            object.__setattr__(self, "label", self.kind)


@dataclass(frozen=True)
class PathBundle:
    """Everything recorded along one simulated path: the fields and the
    derived error Xtil are the columns of bundle_to_csv, plus the realized
    cost."""

    grid: TimeGrid
    X: np.ndarray       # (N+1, n) true state
    Y: np.ndarray       # (N+1, d) observation, running sum of the dY_i
    Xhat: np.ndarray    # (N+1, n) filtered state
    V: np.ndarray       # (N+1, d) innovation, running sum of the kernel's dV_i
    u: np.ndarray       # (N+1, m) applied control (row N: policy value, unused)
    cost: float

    @property
    def Xtil(self) -> np.ndarray:
        """(N+1, n) estimation error X - Xhat, computed on each read."""
        return self.X - self.Xhat


def _policy_controls(policy: ControlPolicy, sol: DeterministicSolution,
                     u: np.ndarray):
    """The control law of policy for the controls u (paths, N+1, m).  The
    zero and open_loop controls do not depend on the state: they are all
    written into u here, and None is returned.  Otherwise the returned
    law(i, Xhat_i, u_i) writes the controls at node i of the paths at
    Xhat_i (paths, n) into u_i (paths, m)."""
    if policy.kind == "zero":
        u[...] = 0.0
        return None
    if policy.kind == "open_loop":
        u[...] = policy.table
        return None
    Theta, ff, offset = sol.Theta, sol.ff, policy.table
    if offset is not None:
        offset = np.broadcast_to(offset, ff.shape)

    def law(i: int, x: np.ndarray, out: np.ndarray):
        _einsum("ij,pj->pi", Theta[i], x, out=out)
        out -= ff[i]
        if offset is not None:
            out += offset[i]

    return law


def _check_policy_table(policy: ControlPolicy, grid: TimeGrid, m: int,
                        where: str | None = None):
    """ShapeMismatch, naming the table `where` (default: by its kind),
    unless the policy's table fits m controls on grid."""
    shapes = {"open_loop": ((grid.steps + 1, m),),
              "perturbed_feedback": ((m,), (grid.steps + 1, m))}.get(policy.kind)
    if shapes and policy.table.shape not in shapes:
        raise ShapeMismatch(f"{where or policy.kind + ' table'}: expected shape "
                            + " or ".join(map(str, shapes)) + f", got {policy.table.shape}")


def _node_major(paths: int, nodes: int, width: int, zeros: bool = False) -> np.ndarray:
    """An empty (or zero) (paths, nodes, width) array stored node by node:
    each per-node slab [:, i] is one C-contiguous block."""
    return (np.zeros if zeros else np.empty)((nodes, paths, width)).transpose(1, 0, 2)


def _add_matvec(out, M, x, tmp):
    """out += M x for M (N, i, j), x (paths, N, j), summed in the order of
    j one scalar product at a time through the (paths, N) scratch tmp."""
    for i in range(M.shape[-2]):
        o = out[..., i]
        for j in range(M.shape[-1]):
            o += np.multiply(M[:, i, j], x[..., j], out=tmp)


def _check_finite(where: str, *paths):
    """NonFinite at the first node where a path is not finite (per-node extremes, no mask)."""
    bad = np.logical_or.reduce([~np.isfinite(e) for a in paths
                                for e in (a.min(axis=(0, 2)), a.max(axis=(0, 2)))])
    if bad.any():
        raise NonFinite(where, int(bad.argmax()))


def _error_chain(sol: DeterministicSolution, dW, dWp, Xt, tmp):
    """The policy-free error chain into Xt (paths, N+1, n); its noise terms
    are written for all nodes first, through the (paths, N) scratch tmp."""
    F = np.eye(Xt.shape[-1]) + np.diff(sol.grid.nodes)[:, None, None] * sol.curlyA[:-1]
    Xt[...] = 0.0
    _add_matvec(Xt[:, 1:], -sol.Delta[:-1], dW, tmp)
    _add_matvec(Xt[:, 1:], sol.table.D[:-1:2], dWp, tmp)
    prod = np.empty(Xt.shape[::2])
    slabs = Xt.transpose(1, 0, 2)  # slabs[i] is Xt[:, i]
    for Fi, x, nxt in zip(F, slabs, slabs[1:]):
        nxt += _einsum("ij,pj->pi", Fi, x, out=prod)


def _closed_loop_arrays(model: ModelSpec, sol: DeterministicSolution,
                        policy: ControlPolicy, dW: np.ndarray, dWp: np.ndarray):
    """Step every path at once (leading axis of dW/dWp) and return X and
    Xhat (paths, N+1, n), u (paths, N+1, m), the innovation increments dV
    (paths, N, d) the filter consumed, and the cost of each path.  The
    four arrays are stored node-major (see _node_major)."""
    grid, tab = sol.grid, sol.table
    n, m, d = model.dims.n, model.dims.m, model.dims.d
    npaths, N = dW.shape[0], grid.steps
    _check_policy_table(policy, grid, m)
    h = np.diff(grid.nodes)[:, None, None]
    X = _node_major(npaths, N + 1, n)  # holds Xtil until the last line
    Xhat = _node_major(npaths, N + 1, n)
    u = _node_major(npaths, N + 1, m)
    dV = _node_major(npaths, N, d, zeros=True)
    tmp = u[:, :-1, 0]  # scratch until the filter loop writes the controls
    with np.errstate(invalid="ignore", over="ignore"):  # _check_finite reports
        _error_chain(sol, dW, dWp, X, tmp)
        _add_matvec(dV, h * tab.H[:-1:2], X[:, :-1], tmp)
        _add_matvec(dV, tab.K[:-1:2], dW, tmp)
        Xhat[:, 0] = model.x0
        Xhat[:, 1:] = h[:, 0] * tab.a[:-1:2]
        _add_matvec(Xhat[:, 1:], sol.gain[:-1], dV, tmp)
        Ah = np.eye(n) + h * tab.A[:-1:2]
        hB = h * tab.B[:-1:2]
        law = _policy_controls(policy, sol, u)
        prod = np.empty((npaths, n))
        xs, us = Xhat.transpose(1, 0, 2), u.transpose(1, 0, 2)  # per-node slabs
        for i, (Ai, Bi, x, ui, nxt) in enumerate(zip(Ah, hB, xs, us, xs[1:])):
            if law:
                law(i, x, ui)
            nxt += _einsum("ij,pj->pi", Ai, x, out=prod)
            nxt += _einsum("ij,pj->pi", Bi, ui, out=prod)
        if law:
            law(N, xs[N], us[N])
        X += Xhat
    _check_finite("simulate_closed_loop", X, Xhat)
    cost = path_cost(tab, X, 0.0 if policy.kind == "zero" else u)
    return {"X": X, "Xhat": Xhat, "u": u, "dV": dV, "cost": cost}


# paths per path-major block: of _bundles' copies, and in polqg.verify of
# the noise scratch and of the increment sums
_PATH_BLOCK = 16


def _bundles(sol: DeterministicSolution, arrs) -> Iterator[PathBundle]:
    """The paths of a _closed_loop_arrays output as PathBundles; Y and V
    are summed from their increments in place, for all paths, node-major
    like the kernel's arrays.  The bundles are cut from path-major copies
    of _PATH_BLOCK paths at a time, so each path's rows are contiguous
    for the CSV writer, and a caller that drops each bundle holds one
    block of copies at a time."""
    tab = sol.table
    X, Xhat, dV = arrs["X"], arrs["Xhat"], arrs["dV"]
    shape = X.shape[:2] + dV.shape[2:]
    # each level allocated just before it is filled, not as one block,
    # to keep the chunk's peak RSS down
    Y = _node_major(*shape, zeros=True)
    dY = _matvec(tab.H[:-1:2], Xhat[:, :-1], out=Y[:, 1:])
    dY += tab.h[:-1:2]
    dY *= np.diff(sol.grid.nodes)[:, None]
    dY += dV
    V = _node_major(*shape, zeros=True)
    V[:, 1:] = dV
    for level in (Y, V):
        np.cumsum(level[:, 1:], axis=1, out=level[:, 1:])
    for b0 in range(0, len(X), _PATH_BLOCK):
        rows = slice(b0, b0 + _PATH_BLOCK)
        block = [np.ascontiguousarray(a[rows]) for a in (X, Y, Xhat, V, arrs["u"])]
        for p, cost in enumerate(arrs["cost"][rows]):
            yield PathBundle(sol.grid, *(a[p] for a in block), float(cost))


def simulate_closed_loop(model: ModelSpec, sol: DeterministicSolution,
                         policy: ControlPolicy, noise: NoiseDraw) -> PathBundle:
    """Simulate one path of the controlled system and its filter."""
    if noise.grid.steps != sol.grid.steps or noise.grid.T != sol.grid.T:
        raise ShapeMismatch("noise grid does not match the solution grid")
    arrs = _closed_loop_arrays(model, sol, policy, noise.dW[None], noise.dWp[None])
    return next(_bundles(sol, arrs))


def simulate_error_direct(model: ModelSpec, sol: DeterministicSolution,
                          noise: NoiseDraw) -> np.ndarray:
    """The estimation error of one path on its own: the kernel's error
    chain, without the loop.  Fed the same draw, simulate_closed_loop must
    give X - Xhat up to roundoff, the discrete consistency check between
    the filter and the error dynamics."""
    if noise.grid.steps != sol.grid.steps or noise.grid.T != sol.grid.T:
        raise ShapeMismatch("noise grid does not match the solution grid")
    N = sol.grid.steps
    Xt = np.empty((1, N + 1, model.dims.n))
    with np.errstate(invalid="ignore", over="ignore"):
        _error_chain(sol, noise.dW[None], noise.dWp[None], Xt, np.empty((1, N)))
    _check_finite("simulate_error_direct", Xt)
    return Xt[0]


# decimal exponents of the power-of-ten table; |x| in (1e-290, 1e290)
# has its exponent in -290..289, and one correction step either way
_E_LO, _E_HI = -291, 290


@functools.cache
def _format_tables():
    """The tables of _format_rows_17g, made on first use.

    pow10[E - _E_LO] holds hi, lo and the 26-bit head of hi, where
    hi + lo = 10**(16 - E) to 2**-106 relative, from exact integer
    arithmetic: the head is split off here because Veltkamp's split of hi
    itself overflows near 1e307.  The other tables are indexed by what
    decides a cell's layout: for E (from _E_LO - 1 to _E_HI + 1), `point`
    is the number of digits before the point, at least 1, and `layout`
    has four columns per E, for (fraction follows, negative), whose eight
    rows are the masks and bytes of the words _format_rows_17g writes.
    zeros[w, k] adds '0' to the bytes of digit word w that hold one of the
    first k digits.
    """
    pow10 = []
    for E in range(_E_LO, _E_HI + 1):
        num, den = (10 ** (16 - E), 1) if E <= 16 else (1, 10 ** (E - 16))
        hi = num / den  # int division rounds correctly
        a, b = hi.as_integer_ratio()
        m, e = math.frexp(hi)
        head = math.ldexp(round(math.ldexp(m, 26)), e - 26)
        pow10.append((hi, (num * b - a * den) / (den * b), head))
    layout, point = [], []
    for E in range(_E_LO - 1, _E_HI + 2):
        fixed = -4 <= E < 17
        p = E + 1 if fixed else 1  # the point sits before digit p
        # per digit word (digits 1..8, then 9..16): bytes before the point, '.'
        low = [(1 << 8 * (p - b)) - 1 if 0 <= p - b < 8 else _M64 for b in (1, 9)]
        dot = [0x2E << 8 * (p - b) if 0 <= p - b < 8 else 0 for b in (1, 9)]
        split1 = low[0] != _M64
        prefix = b"0.000"[:1 - E] if fixed and E < 0 else b""
        suffix = b"" if fixed else b"e%+03d" % E
        for frac in (0, 1):
            for sign in (b"\0", b"-"):
                # word 0's sign and prefix; word 1's mask of W1 and '.';
                # word 2's masks of W1 and W2 and '.'; word 3's mask of
                # W2; word 4's exponent (the separator is added later)
                layout.append((int.from_bytes(sign + prefix, "little"),
                               low[0], dot[0] * frac, _M64 ^ low[0],
                               0 if split1 else low[1], dot[1] * frac,
                               _M64 if split1 else _M64 ^ low[1],
                               int.from_bytes(suffix, "little")))
        point.append(max(p, 1))
    zeros = [[sum(0x30 << 8 * j for j in range(8) if b + j < k) for k in range(18)]
             for b in (1, 9)]
    return (np.array(pow10), np.array(layout, np.uint64).T.copy(),
            np.array(point, np.uint8), np.array(zeros, np.uint64))


def _scaled(ax, E):
    """hi, lo with hi + lo = ax * 10**(16 - E) within 1e-14, for ax in
    (1e-290, 1e290): Dekker's exact product of ax and the table's hi, plus
    ax times its lo."""
    T = np.take(_format_tables()[0], E - _E_LO, axis=0)
    H, L, Hh = T[:, 0], T[:, 1], T[:, 2]
    Hl = H - Hh
    p = ax * H
    c = ax * 134217729.0  # 2**27 + 1: Veltkamp's split of ax
    xh = c - (c - ax)
    xl = ax - xh
    return p, ((xh * Hh - p) + xh * Hl + xl * Hh) + xl * Hl + ax * L


def _digit_bytes(v):
    """The 8 decimal digits of each v < 1e8 (uint64, overwritten) as the
    bytes of a uint64, most significant in byte 0: split into halves of 4
    digits, each into 2, each into 1, by multiply-and-shift."""
    hi = v // 10000
    v -= hi * 10000
    v <<= 32
    v |= hi
    q = ((v * 10486) >> 20) & 0x0000007F0000007F
    v -= q * 100
    v <<= 16
    v |= q
    q = ((v * 103) >> 10) & 0x000F000F000F000F
    v -= q * 10
    v <<= 8
    v |= q
    return v


def _significant(w):
    """The number of bytes of each _digit_bytes word up to its last nonzero one."""
    s = w + 0x7F7F7F7F7F7F7F7F
    s &= 0x8080808080808080
    s |= s >> 8
    s |= s >> 16
    s |= s >> 32
    return np.bitwise_count(s)


def _nearest_digits(x):
    """E, D and whether D is proven, for each cell of x: E = floor(log10
    |x|) and D (uint64) the integer nearest to y = |x| 10**(16 - E), from
    _scaled's double-double y, whose error is below 1e-14.  E is corrected
    where y falls outside [1e16, 1e17), and D = 10**17 becomes 10**16 at
    E + 1.  D is not proven where x is zero, NaN, infinite, subnormal or
    outside (1e-290, 1e290), where y is not finite, or where the fraction
    of y is within 1e-6 of one half, which holds every tie."""
    ax = np.abs(x)
    proven = (ax > 1e-290) & (ax < 1e290)
    ax[~proven] = 1.0
    with np.errstate(invalid="ignore", over="ignore"):
        E = np.floor(np.log10(ax)).astype(np.int64)
        hi, lo = _scaled(ax, E)
        # +1 where y < 1e16, -1 where y >= 1e17, by hi and lo together:
        # hi alone rounds onto the bounds
        fix = (((hi - 1e16) + lo < 0).view(np.int8)
               - ((hi - 1e17) + lo >= 0).view(np.int8))
        moved = np.flatnonzero(fix)
        if moved.size:
            E[moved] -= fix[moved]
            h, l = _scaled(ax[moved], E[moved])
            hi[moved], lo[moved] = h, l
            proven[moved] &= ((h - 1e16) + l >= 0) & ((h - 1e17) + l < 0)
        whole = np.floor(lo)
        lo -= whole
        proven &= np.isfinite(whole) & (np.abs(lo - 0.5) > 1e-6)
        D = hi.astype(np.int64)
        D += whole.astype(np.int64)
        D += lo > 0.5
    carry = D == 10 ** 17
    E += carry
    D -= carry * (9 * 10 ** 16)
    return E, D.view(np.uint64), proven


def _cell_17g(x: float) -> bytes:
    """One cell whose digits _format_rows_17g cannot prove, as Python writes it."""
    return b"%.17g" % x


def _format_rows_17g(block: np.ndarray) -> str:
    """The text of a 2-D float block: each cell as '%.17g' % x, a comma
    between cells and a newline after each row.

    Each cell's 17 digits come from _nearest_digits, zeros are written as
    D = 0, and every other cell whose D is not proven is written by
    _cell_17g.  Each cell fills five little-endian uint64 words, 40 bytes,
    and the NUL bytes are padding deleted at the end.  Word 0 holds the
    sign, the '0.000' of fixed notation below 1, and the leading digit;
    words 1 to 3 hold digits 1..16, trailing zeros dropped, in two words
    of 8 with the one holding the point split into its bytes before the
    point plus '.' and its bytes after; word 4 holds the exponent of e
    notation and the separator.
    """
    x = np.ascontiguousarray(block, dtype=float)
    rows, cols = x.shape
    x = x.ravel()
    _, layout, point, zeros = _format_tables()
    E, D, proven = _nearest_digits(x)
    zero = x == 0
    d0 = D // 10 ** 16
    D -= d0 * 10 ** 16
    d0 -= zero
    W = np.empty((2, len(x)), np.uint64)
    np.floor_divide(D, 10 ** 8, out=W[0])
    np.subtract(D, W[0] * 10 ** 8, out=W[1])
    W = _digit_bytes(W)
    n1, n2 = _significant(W)
    n2 += (n2 > 0) * np.uint8(8)
    nsig = np.maximum(n1, n2)
    nsig += 1
    at = E - (_E_LO - 1)  # the cell's column of the layout tables
    p = point[at]
    W += np.take(zeros, np.maximum(nsig, p), axis=1)  # integer digits stay
    at <<= 2
    at += (nsig > p) * 2
    at += np.signbit(x)
    W1, W2 = W
    text = bytearray(40 * len(x))
    words = np.frombuffer(text, "<u8").reshape(-1, 5)  # byte 0 is the low byte
    d0 += 0x30
    d0 <<= 48
    words[:, 0] = layout[0][at] | d0
    words[:, 1] = (W1 & layout[1][at]) | layout[2][at]
    words[:, 2] = (W1 & layout[3][at]) | (W2 & layout[4][at]) | layout[5][at]
    words[:, 3] = W2 & layout[6][at]
    sep = np.full((rows, cols), ord(",") << 40, np.uint64)
    sep[:, -1] = ord("\n") << 40
    words[:, 4] = layout[7][at] | sep.ravel()
    cells = words.view(np.uint8)
    for i in np.flatnonzero(~(proven | zero)).tolist():
        cell = _cell_17g(float(x[i]))
        cells[i, :37] = 0  # all but the separator, byte 5 of word 4
        cells[i, :len(cell)] = np.frombuffer(cell, np.uint8)
    return text.translate(None, b"\0").decode()


def bundle_to_csv(bundle: PathBundle, fileobj):
    """Write one path as CSV: a row per node, 17 significant digits, and a
    trailing comment record with the realized cost.  The whole (N+1,
    columns) block is one _format_rows_17g call, the same bytes as a %.17g
    row template applied over it: numpy writes every cell whose digits it
    can prove, and '%.17g' % x the few others (see the module docstring).
    No timestamps, so identical bundles serialize byte-identically."""
    levels = (("X", bundle.X), ("Y", bundle.Y), ("Xhat", bundle.Xhat),
              ("Xtil", bundle.Xtil), ("V", bundle.V), ("u", bundle.u))
    cols = ["t"] + [f"{name}{j+1}" for name, a in levels for j in range(a.shape[1])]
    fileobj.write(",".join(cols) + "\n")
    block = np.concatenate([bundle.grid.nodes[:, None]] + [a for _, a in levels], axis=1)
    fileobj.write(_format_rows_17g(block))
    fileobj.write(f"# cost,{bundle.cost:.17g}\n")
