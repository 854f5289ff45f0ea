"""Bethe equations of XXZ/XXX chains and an exact small-size transfer-matrix oracle.

Closed chains: product of site terms equals the magnon scattering product;
we return everything moved to one side, so the contract is LHS = 1.  Open
chains (diagonal boundaries) add two boundary factors and double every site
and magnon term.  The equations are stated once, as one row table per
(kind, L, M, boundary) built by :func:`_bethe_table`; :func:`bethe_lhs` and
the solver's log residual both evaluate it.

An open XXZ chain also takes xi = (+i inf, -i inf), written complex(0,
+-inf), the boundary of the U_q(sl_2)-invariant chain (Sklyanin, J. Phys. A
21 (1988) 2375; Pasquier and Saleur, Nucl. Phys. B 330 (1990) 523), at its
exact limit: no boundary rows (:func:`_bethe_rows`), and K from the
normalized limit of its weight (:func:`_boundary_weight`).

The printed open-chain magnon factor orders the difference terms as
u_j - u_i; that ordering breaks both the reflection symmetry u_i -> -u_i
and every closed-form check downstream, so the difference factors here put
the i-th root first.  The sum factors are symmetric and unaffected.

The oracle builds dense transfer matrices from the six-vertex weights of the
spin-1/2 R-matrix and never reads the row table or the matrix-free rows.
Its monodromies are grown one site at a time as 2x2 auxiliary blocks of
2^a x 2^a operators; each site writes the 16 (auxiliary, site) blocks of the
grown array as scaled copies of the old blocks, O(4^L) per site in place of
multiplying 2^L x 2^L lifted R-matrices.  The closed T_0(u) grows from site
L down to site 1, so the new site is always the most significant and every
block is contiguous; the double row U_-(u) must grow outward from K, site 1
first, so its new site is the least significant and its blocks are strided.
Closed t(u) = tr_0 T_0(u), open t(u) = Tr_0 K(u+eta/2, xi_+) U_-(u); the
transfer matrix shares the monodromies' site steps and traces the last
site as it writes it, building only the diagonal auxiliary blocks.  The
open trace argument follows the displayed A/D-tilde expansion (which fixes
the K_+ shift uniquely).  The dense oracle is the witness for L <= 8; its
commutator check is taken block by block over the magnon sectors, its RTT
check (of the one-row T_0 only) block by block over the auxiliary entries.

Eigenvector certification never builds a dense operator: the Bethe state
prod B(u_k)|up...up> and t(u) times it are applied to vectors one site at a
time, O(L 2^L) per row, for spin-1/2 chains up to L = 14.  The roots enter
B(u) as they solve the row table's equations, unshifted.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import List, Optional, Tuple

import numpy as np

from .rows import RowTable
from .specfun import BracketContext, SingularPointError, bracket

KINDS = ("closed-xxz", "open-xxz", "closed-xxx", "open-xxx")

#: reject any Bethe-factor denominator smaller than this
DENOM_TOL = 1e-10

#: spectral parameter at which certify_roots applies t(u)
PROBE_U = 0.1731


@dataclass(frozen=True)
class ChainSpec:
    """One spin chain: kind, length, magnon number and site/boundary data."""

    kind: str
    n_sites: int
    n_magnons: int
    eta: float
    spins: Tuple[float, ...]
    inhomogeneities: Tuple[float, ...]
    xi_plus: Optional[complex] = None
    xi_minus: Optional[complex] = None
    #: the weight's bracket context, built once here; None on rational kinds
    _bracket: Optional[BracketContext] = field(default=None, init=False, repr=False,
                                               compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", str(self.kind).lower())
        if self.kind not in KINDS:
            raise ValueError("kind must be one of %s" % (KINDS,))
        if self.n_sites < 1:
            raise ValueError("need at least one site")
        if self.n_magnons < 0:
            raise ValueError("magnon number must be >= 0")
        object.__setattr__(self, "spins", tuple(float(s) for s in self.spins))
        object.__setattr__(
            self, "inhomogeneities", tuple(float(t) for t in self.inhomogeneities)
        )
        if len(self.spins) != self.n_sites or len(self.inhomogeneities) != self.n_sites:
            raise ValueError("spins and inhomogeneities must have length %d" % self.n_sites)
        if self.is_trig:  # BracketContext validates sin(pi eta) != 0
            object.__setattr__(self, "_bracket", BracketContext(self.eta))
        if self.is_open:
            if self.xi_plus is None or self.xi_minus is None:
                raise ValueError("open chains need both xi_plus and xi_minus")
            object.__setattr__(self, "xi_plus", complex(self.xi_plus))
            object.__setattr__(self, "xi_minus", complex(self.xi_minus))
            xi = {self.xi_plus, self.xi_minus}
            if not all(map(cmath.isfinite, xi)) and not (
                    self.is_trig and xi == {complex(0, math.inf), complex(0, -math.inf)}):
                raise ValueError("a non-finite boundary must be the xxz pair (+i*inf, -i*inf)")
        elif self.xi_plus is not None or self.xi_minus is not None:
            raise ValueError("closed chains take no boundary parameters")

    @property
    def is_open(self) -> bool:
        return self.kind.startswith("open")

    @property
    def is_trig(self) -> bool:
        return self.kind.endswith("xxz")


#: two roots closer than this coincide; on open chains, two whose sum is this
#: close to zero are reflection-degenerate
ROOT_TOL = 1e-8


@lru_cache(maxsize=None)
def _root_tests(n_roots: int, is_open: bool) -> Tuple[np.ndarray, np.ndarray]:
    """The tests of :func:`_root_clashes`: the pairs i < j in loop order (P, 2),
    and a 0/+-1 matrix (M, T) taking a root set to the values tested, exactly
    as a loop over the pairs computes them: column t < P gives u_i - u_j of
    pair t (coincidence) and, for open chains, column P + t gives u_i + u_j
    (reflection)."""
    pairs = np.argwhere(np.triu(np.ones((n_roots, n_roots), dtype=bool), 1))
    signs = (-1.0, 1.0) if is_open else (-1.0,)
    tests = np.zeros((n_roots, len(signs) * len(pairs)), dtype=complex)
    for t, (sign, (i, j)) in enumerate(product(signs, pairs)):
        tests[i, t], tests[j, t] = 1.0, sign
    return pairs, tests


def _root_clashes(u: np.ndarray, is_open: bool) -> np.ndarray:
    """The one root-set check, at one root set u (M,) or a stack (S, M).

    True where |u_i - u_j| < ROOT_TOL (the roots coincide) or, on open
    chains, |u_i + u_j| < ROOT_TOL (they are reflection-degenerate), per test
    of :func:`_root_tests`: (..., T).
    """
    return np.abs(u @ _root_tests(u.shape[-1], is_open)[1]) < ROOT_TOL


def _check_roots(values: Tuple[complex, ...], is_open: bool) -> None:
    """Raise ValueError naming the first pair that :func:`_root_clashes` flags."""
    if len(values) < 2:  # no pair to test
        return
    hit = np.flatnonzero(_root_clashes(np.array(values, dtype=complex), is_open))
    if len(hit):
        pairs = _root_tests(len(values), is_open)[0]
        raise ValueError(("Bethe roots %d and %d coincide" if hit[0] < len(pairs) else
                          "roots %d and %d are reflection-degenerate (u_i + u_j = 0)")
                         % tuple(pairs[hit[0] % len(pairs)]))


@dataclass(frozen=True)
class BetheRoots:
    values: Tuple[complex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(complex(u) for u in self.values))
        _check_roots(self.values, False)

    def __len__(self) -> int:
        return len(self.values)


def validate_roots(chain: ChainSpec, roots: BetheRoots) -> None:
    if len(roots) != chain.n_magnons:
        raise ValueError(
            "expected %d roots, got %d" % (chain.n_magnons, len(roots))
        )
    if chain.is_open:
        _check_roots(roots.values, True)


@lru_cache(maxsize=None)
def _bethe_table(kind: str, n_sites: int, n_magnons: int, boundary: bool) -> RowTable:
    """The ratios of every Bethe equation of one shape, as one row table.

    Columns are u || (eta, eta*s_a, theta_a, [xi_+, xi_-]), the boundary
    ones only with ``boundary``.  Trig kinds use sin(pi x); the sin(pi eta)
    normalizations cancel in every ratio, so the bracket denominator is
    dropped here.
    """
    is_open = kind.startswith("open")
    m, L = n_magnons, n_sites
    eta, spin, theta, xi = m, m + 1, m + 1 + L, m + 1 + 2 * L
    ratios: List = []  # (equation, power, numerator, denominator)
    for i in range(n_magnons):
        for a in range(n_sites):
            up = {eta: 0.5, spin + a: 1, theta + a: -1}  # eta/2 + eta*s - theta
            dn = {eta: 0.5, spin + a: -1, theta + a: -1}  # eta/2 - eta*s - theta
            if is_open:
                ratios.append((i, 1, {**up, i: 1}, {**up, i: -1}))
                ratios.append((i, 1, {**dn, i: -1}, {**dn, i: 1}))
            else:
                ratios.append((i, 1, {**up, i: 1}, {**dn, i: 1}))
        if boundary:
            for b in (xi, xi + 1):
                ratios.append((i, 1, {i: 1, eta: -0.5, b: 1}, {i: 1, eta: 0.5, b: -1}))
        for j in range(n_magnons):
            if j != i:
                if is_open:
                    ratios.append((i, 1, {i: 1, j: 1, eta: -1}, {i: 1, j: 1, eta: 1}))
                ratios.append((i, 1, {i: 1, j: -1, eta: -1}, {i: 1, j: -1, eta: 1}))
    kind_f = "sin_pi" if kind.endswith("xxz") else "linear"
    n_params = 1 + 2 * n_sites + (2 if boundary else 0)
    return RowTable(kind_f, n_magnons, n_magnons, n_params, ratios, "denominator", DENOM_TOL)


def _bethe_rows(kind: str, n_magnons: int, eta, spins, thetas,
                xi) -> Tuple[RowTable, np.ndarray]:
    """The Bethe row table of one chain, or of a stack of chains of one shape,
    and its parameter columns (eta, eta*s_a, theta_a, [xi_+, xi_-]):
    ``eta`` (...), ``spins`` and ``thetas`` (..., L) and ``xi`` (..., 2), None
    on closed chains, broadcast against each other over the leading axes.

    A finite xi adds the ratios [u - eta/2 + xi]/[u + eta/2 - xi] to every
    equation.  The pair (+i inf, -i inf), the one non-finite pair
    :class:`ChainSpec` takes, adds no rows and no columns: as xi -> +-i inf
    the ratio tends to -e^(-+2 pi i u), and the two cancel exactly.
    """
    if xi is not None and not np.isfinite(xi).all():
        xi = None
    eta, spins = np.asarray(eta, dtype=float), np.asarray(spins, dtype=float)
    n = spins.shape[-1]
    lead = np.broadcast_shapes(eta.shape, spins.shape[:-1], np.shape(thetas)[:-1],
                               np.shape(xi)[:-1])  # np.shape(None) is ()
    out = np.empty(lead + (1 + 2 * n + (0 if xi is None else 2),), dtype=complex)
    out[..., 0] = eta
    out[..., 1:1 + n] = eta[..., None] * spins
    out[..., 1 + n:1 + 2 * n] = thetas
    if xi is not None:
        out[..., 1 + 2 * n:] = xi
    return _bethe_table(kind, n, n_magnons, xi is not None), out


def _bethe_system(chain: ChainSpec) -> Tuple[RowTable, np.ndarray]:
    """The Bethe row table of ``chain`` and its parameter vector."""
    xi = (chain.xi_plus, chain.xi_minus) if chain.is_open else None
    return _bethe_rows(chain.kind, chain.n_magnons, chain.eta, chain.spins,
                       chain.inhomogeneities, xi)


def bethe_lhs(chain: ChainSpec, roots: BetheRoots, i: int) -> complex:
    """The i-th Bethe equation arranged as one product; the contract is = 1."""
    validate_roots(chain, roots)
    if not 0 <= i < len(roots):
        raise ValueError("root index %d out of range" % i)
    table, params = _bethe_system(chain)
    return table.product(np.concatenate((roots.values, params)), i)


def bethe_residuals(chain: ChainSpec, roots: BetheRoots) -> np.ndarray:
    """|LHS_i - 1| for every magnon, each LHS as :func:`bethe_lhs` gives it."""
    validate_roots(chain, roots)
    table, params = _bethe_system(chain)
    x = np.concatenate((roots.values, params))
    return np.array([abs(table.product(x, i) - 1.0) for i in range(len(roots))])


# ---------------------------------------------------------------------------
# R- and K-matrices
# ---------------------------------------------------------------------------


def _weight(ctx: Optional[BracketContext], x: complex) -> complex:
    # the weight [x]: the bracket of ctx on trig kinds, x itself on rational ones (no ctx)
    return complex(x) if ctx is None else bracket(x, ctx)


def _six_vertex(ctx: Optional[BracketContext], y: complex,
                eta: float) -> Tuple[complex, complex, complex]:
    """The six-vertex weights (a, b, c) = ([y + eta], [y], [eta]) of R(y), the
    one statement that the R-matrix checks and the transfer matrices read."""
    return _weight(ctx, y + eta), _weight(ctx, y), _weight(ctx, eta)


def _r(ctx: Optional[BracketContext], u: complex, eta: float) -> np.ndarray:
    a, b, c = _six_vertex(ctx, u, eta)
    return np.array([[a, 0, 0, 0], [0, b, c, 0], [0, c, b, 0], [0, 0, 0, a]], dtype=complex)


def r_matrix(u: complex, ctx: BracketContext) -> np.ndarray:
    """Six-vertex R-matrix with entries in the bracket normalization."""
    return _r(ctx, u, ctx.eta)


def _boundary_weight(ctx: Optional[BracketContext], x: complex, xi: complex) -> complex:
    """The boundary weight w(x, xi) = [x + xi]; at xi = +-i inf its normalized
    limit e^(-+i pi x), since [x +- iT] is e^(-+i pi x) times a factor free
    of x, up to a relative e^(-2 pi T)."""
    if cmath.isfinite(xi):
        return _weight(ctx, x + xi)
    return cmath.exp(-1j * math.copysign(math.pi, xi.imag) * x)


def _k_diag(ctx: Optional[BracketContext], x: complex, xi: complex) -> np.ndarray:
    """The diagonal of the boundary matrix K(x, xi) = diag([x + xi], -[x - xi])
    = diag(w(x), w(-x)), the one statement that the reflection check and the
    open transfer matrices read."""
    return np.array([_boundary_weight(ctx, x, xi), _boundary_weight(ctx, -x, xi)])


def k_matrix(u: complex, xi: complex, ctx: BracketContext) -> np.ndarray:
    """Diagonal boundary matrix diag([u+xi], -[u-xi])."""
    return np.diag(_k_diag(ctx, u, xi))


def yang_baxter_residual(u: complex, v: complex, ctx: BracketContext) -> float:
    """Max-norm defect of R12(u-v) R13(u) R23(v) = R23(v) R13(u) R12(u-v)."""
    r12 = np.kron(r_matrix(u - v, ctx), np.eye(2))
    r23 = np.kron(np.eye(2), r_matrix(v, ctx))
    r13 = _embed_13(r_matrix(u, ctx))
    lhs = r12 @ r13 @ r23
    rhs = r23 @ r13 @ r12
    return float(np.max(np.abs(lhs - rhs)))


def _embed_13(r4: np.ndarray) -> np.ndarray:
    t = r4.reshape(2, 2, 2, 2)  # <i k | R | j l>
    out = np.einsum("ikjl,mn->imkjnl", t, np.eye(2)).reshape(8, 8)
    return out


def reflection_residual(
    u: complex, v: complex, xi: complex, ctx: BracketContext
) -> float:
    """Max-norm defect of the boundary reflection equation for k_matrix."""
    perm = np.eye(4)[[0, 2, 1, 3]]
    r12 = r_matrix(u - v, ctx)
    r21 = perm @ r_matrix(u + v, ctx) @ perm
    k1 = np.kron(k_matrix(u, xi, ctx), np.eye(2))
    k2 = np.kron(np.eye(2), k_matrix(v, xi, ctx))
    lhs = r12 @ k1 @ r21 @ k2
    rhs = k2 @ r21 @ k1 @ r12
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# monodromy and transfer matrices (dense oracle, spin 1/2)
# ---------------------------------------------------------------------------

#: longest chain the dense oracle builds: 2^{2L} entries per operator
ORACLE_MAX_SITES = 8

#: longest chain whose Bethe states are applied matrix-free: 2^L entries per state
MATRIX_FREE_MAX_SITES = 14


def _check_oracle(n_sites: int, spins: Tuple[float, ...],
                  max_sites: int = ORACLE_MAX_SITES) -> None:
    """Refuse a chain the oracle does not build: too long, or not spin 1/2."""
    if n_sites > max_sites:
        raise ValueError("oracle limited to L <= %d" % max_sites)
    if any(abs(s - 0.5) > 1e-12 for s in spins):
        raise ValueError("oracle supports spin-1/2 only")


def _weights(chain: ChainSpec, x: complex, a: int,
             reverse: bool = False) -> Tuple[complex, complex, complex]:
    # the six-vertex weights of R_0a at x - th_a; reversed, (b, a, -c): those of
    # sigma_y R_0a^t0 sigma_y
    wa, wb, wc = _six_vertex(chain._bracket, x - chain.inhomogeneities[a], chain.eta)
    return (wb, wa, -wc) if reverse else (wa, wb, wc)


def _vertex(i: int, q: int, k: int, p: int) -> int:
    # which weight sits at <i q|R|k p> of a six-vertex R, given i + q = k + p:
    # 0 for a, 1 for b, 2 for c
    return 2 if (i, q) != (k, p) else 0 if i == q else 1


#: the one-row site step: per block (j, q, s) of the grown T, the one term
#: T[i][k] R_0a[k q; j s] at k = j + s - q, with x the weight of R at that
#: entry; the blocks (0, 1, 0) and (1, 0, 1) have none and are zero
_ROW_TERMS = tuple((j, q, s, j + s - q, _vertex(j + s - q, q, j, s))
                   for j, q, s in product(range(2), repeat=3) if 0 <= j + s - q <= 1)

#: the double row's site step: per output block (i, j, q, s), the terms
#: (k, l, x, y) of sum_p R[i q; k p] R^[l p; j s] U[k][l], with x and y the
#: weights of R and R^ at those entries; at most two terms, none for two
#: blocks.  Each block goes to slot (i, j) of the grown array
_DOUBLE_ROW_TERMS = tuple(
    ((i, j), q, s, tuple((i + q - p, j + s - p, _vertex(i, q, i + q - p, p),
                          _vertex(j + s - p, p, j, s))
                         for p in range(2) if 0 <= i + q - p <= 1 and 0 <= j + s - p <= 1))
    for i, j, q, s in product(range(2), repeat=4))

#: the blocks of the double row's traced last site, those with i = j, each
#: to slot i of an array of the two diagonal entries
_DOUBLE_ROW_DIAGONAL = tuple(((i,), q, s, terms)
                             for (i, j), q, s, terms in _DOUBLE_ROW_TERMS if i == j)


def _row_sites(chain: ChainSpec, u: complex, stop: int) -> np.ndarray:
    """T_0(u) over sites L, ..., stop + 1 (0-based a >= stop), grown as
    :func:`monodromy` says, the blocks of :data:`_ROW_TERMS` each written
    for both rows i at once."""
    acc = np.eye(2, dtype=complex).reshape(2, 2, 1, 1)
    for a in reversed(range(stop, chain.n_sites)):
        w = _weights(chain, u, a)
        d = acc.shape[-1]
        new = np.empty((2, 2, 2, d, 2, d), dtype=complex)  # i, j, site q, old, site s, old
        new[:, 0, 1, :, 0] = new[:, 1, 0, :, 1] = 0
        for j, q, s, k, x in _ROW_TERMS:
            np.multiply(acc[:, k], w[x], out=new[:, j, q, :, s])
        acc = new.reshape(2, 2, 2 * d, 2 * d)
    return acc


def _double_row_site(chain: ChainSpec, u: complex, a: int, acc: np.ndarray,
                     blocks) -> np.ndarray:
    """The ``blocks`` (rows of :data:`_DOUBLE_ROW_TERMS`) of site a's step of
    :func:`double_row_monodromy`, each written straight into its strided view
    of its slot: an array (slot..., old, site q, old, site s)."""
    w, hat = _weights(chain, u, a), _weights(chain, -u, a, reverse=True)
    d = acc.shape[-1]
    out = np.empty((2,) * len(blocks[0][0]) + (d, 2, d, 2), dtype=complex)
    for slot, q, s, terms in blocks:
        view = out[slot][:, q, :, s]
        if not terms:
            view[...] = 0
            continue
        (k0, l0, x0, y0), *rest = terms
        np.multiply(acc[k0, l0], w[x0] * hat[y0], out=view)
        for k1, l1, x1, y1 in rest:
            view += (w[x1] * hat[y1]) * acc[k1, l1]
    return out


def _double_row_sites(chain: ChainSpec, u: complex, stop: int) -> np.ndarray:
    """U_-(u) over sites 1, ..., stop, grown as :func:`double_row_monodromy` says."""
    k = _k_diag(chain._bracket, u - chain.eta / 2, chain.xi_minus)
    acc = np.diag(k).reshape(2, 2, 1, 1)
    for a in range(stop):
        d = acc.shape[-1]
        acc = _double_row_site(chain, u, a, acc, _DOUBLE_ROW_TERMS).reshape(2, 2, 2 * d, 2 * d)
    return acc


def monodromy(chain: ChainSpec, u: complex) -> np.ndarray:
    """T_0(u) = R_0L(u - th_L) ... R_01(u - th_1) as a (2, 2, 2^L, 2^L) block
    array: T[i][j] is the 2^L x 2^L operator in auxiliary entry (i, j).

    Grown from site L down to site 1, multiplying on the right in auxiliary
    space, T[i][j] <- sum_k T[i][k] (x) R_0a[k, j].  Site 1 is the most
    significant, so every new site is the most significant so far, and each
    of the 16 (i, j; q, s) blocks of the grown array is one contiguous d x d
    block (d the dimension of the sites so far): the weight of
    R_0a[k q; j s] times T[i][k] at k = j + s - q.  That is 12 scaled copies
    and 4 zero blocks, O(4^L) per site.
    """
    _check_oracle(chain.n_sites, chain.spins)
    return _row_sites(chain, u, 0)


def double_row_monodromy(chain: ChainSpec, u: complex) -> np.ndarray:
    """U_-(u) = T(u) K(u - eta/2, xi_-) sigma_y T^t(-u) sigma_y, a block array
    like :func:`monodromy`.

    Grown outward from K, site 1 first, each new site appended as the least
    significant: U[i][j] <- sum_kl R_0a(u)[i, k] U[k][l] R^_0a(-u)[l, j] with
    R^ = sigma_y R^t0 sigma_y, six-vertex with weights (b, a, -c).  Each of
    the 16 (i, j; q, s) blocks of the grown array is at most two scaled
    copies of U blocks (:data:`_DOUBLE_ROW_TERMS`), written straight into its
    strided view, at O(4^L) per site.
    """
    if not chain.is_open:
        raise ValueError("double-row monodromy is defined for open chains")
    _check_oracle(chain.n_sites, chain.spins)
    return _double_row_sites(chain, u, chain.n_sites)


def transfer_matrix(chain: ChainSpec, u: complex) -> np.ndarray:
    """Dense transfer matrix at spectral parameter u.

    The monodromy is grown over every site but the last one it takes, and
    that site is traced as it is written, so only the auxiliary blocks the
    trace reads are built.  Closed, tr_0 T_0(u) at site 1: per (q, s) the
    blocks of T[0][0] and T[1][1], 6 scaled copies and 2 adds into one
    2^L x 2^L array.  Open, Tr_0 K(u + eta/2, xi_+) U_-(u) at site L: the 8
    blocks of U[0][0] and U[1][1], combined as
    k_0 U[0][0] + k_1 U[1][1].  Every product keeps its operand order, so
    the result equals the trace of :func:`monodromy` or
    :func:`double_row_monodromy` exactly, up to the sign of a zero.
    """
    _check_oracle(chain.n_sites, chain.spins)
    last = chain.n_sites - 1
    if chain.is_open:
        acc = _double_row_sites(chain, u, last)
        d = acc.shape[-1]
        diag = _double_row_site(chain, u, last, acc, _DOUBLE_ROW_DIAGONAL)
        kp = _k_diag(chain._bracket, u + chain.eta / 2, chain.xi_plus)
        t = kp[0] * diag[0]
        t += np.multiply(kp[1], diag[1], out=diag[1])
        return t.reshape(2 * d, 2 * d)
    acc = _row_sites(chain, u, 1)
    w = _weights(chain, u, 0)
    d = acc.shape[-1]
    out = np.empty((2, d, 2, d), dtype=complex)  # site q, old, site s, old
    for j, q, s, k, x in _ROW_TERMS:  # blocks q = s take i = 0, then add i = 1
        if j and q == s:
            out[q, :, s] += acc[j, k] * w[x]
        else:
            np.multiply(acc[j, k], w[x], out=out[q, :, s])
    return out.reshape(2 * d, 2 * d)


def open_transfer_expansion(chain: ChainSpec, u: complex) -> np.ndarray:
    """Second evaluation path for the open transfer matrix.

    Uses the displayed expansion
    t = [2u+eta][u-eta/2+xi_+]/[2u] * A - [u+eta/2-xi_+]/[2u] * D-tilde,
    which the traced K(u+eta/2, xi_+) reproduces identically.
    """
    if not chain.is_open:
        raise ValueError("expansion applies to open chains")
    um = double_row_monodromy(chain, u)
    ctx, h, xi = chain._bracket, chain.eta / 2, chain.xi_plus
    b2u = _weight(ctx, 2 * u)
    if abs(b2u) < DENOM_TOL:
        raise SingularPointError("expansion singular at [2u] = 0")
    dt = b2u * um[1][1] - _weight(ctx, chain.eta) * um[0][0]
    # [u - eta/2 + xi_+] = w(u - eta/2, xi_+), [u + eta/2 - xi_+] = -w(-u - eta/2, xi_+)
    c_a = _weight(ctx, 2 * u + chain.eta) * _boundary_weight(ctx, u - h, xi)
    c_d = _boundary_weight(ctx, -u - h, xi)
    return (c_a * um[0][0] + c_d * dt) / b2u


def rtt_residual(chain: ChainSpec, u: complex, v: complex) -> float:
    """Max-norm defect of R12(u-v) T1(u) T2(v) = T2(v) T1(u) R12(u-v).

    Only the one-row T(u) of :func:`monodromy` is checked, on open chains
    too: the double row's reflection algebra is not (a closed and an open
    chain of the same eta and theta give the same defect).

    Taken per auxiliary block, (a, b) the row and (c, d) the column:
    (T1(u) T2(v))[ab, cd] = T(u)[a][c] T(v)[b][d] and (T2(v) T1(u))[ab, cd] =
    T(v)[b][d] T(u)[a][c], 16 products of 2^L x 2^L operators each way, and
    R12(u-v) mixes the blocks by its 4 x 4 entries.
    """
    tu, tv = monodromy(chain, u), monodromy(chain, v)
    d = tu.shape[-1]
    fwd = (tu[:, None, :, None] @ tv[None, :, None, :]).reshape(4, 4, d, d)
    rev = (tv[None, :, None, :] @ tu[:, None, :, None]).reshape(4, 4, d, d)
    r12 = _r(chain._bracket, u - v, chain.eta)
    lhs = np.tensordot(r12, fwd, axes=1)
    rhs = np.tensordot(rev, r12, axes=([1], [0]))  # ab, p, r, cd
    return float(np.max(np.abs(lhs - np.moveaxis(rhs, -1, 1))))


@lru_cache(maxsize=None)
def _magnon_sectors(n_sites: int) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
    """The mask of basis pairs in different magnon sectors (popcount of the
    index, the number of down spins) and the basis indices of each sector."""
    count = np.array([bin(i).count("1") for i in range(2**n_sites)])
    return (count[:, None] != count[None, :],
            tuple(np.flatnonzero(count == m) for m in range(n_sites + 1)))


def commutator_residual(chain: ChainSpec, u: complex, v: complex) -> float:
    """Max-norm of [t(u), t(v)], taken sector by sector.

    Closed chains and diagonal boundaries conserve the magnon number, so both
    transfer matrices are block diagonal over the sectors; an entry outside
    the blocks raises ValueError, and only the L + 1 blocks are multiplied.
    """
    tu = transfer_matrix(chain, u)
    tv = transfer_matrix(chain, v)
    off, sectors = _magnon_sectors(chain.n_sites)
    if np.any(tu[off]) or np.any(tv[off]):
        raise ValueError("transfer matrix mixes magnon sectors")
    blocks = [(tu[np.ix_(s, s)], tv[np.ix_(s, s)]) for s in sectors]
    return float(np.max([np.max(np.abs(a @ b - b @ a)) for a, b in blocks]))


# ---------------------------------------------------------------------------
# Bethe states and eigenvector certification (matrix-free, spin 1/2)
# ---------------------------------------------------------------------------


def _row(chain: ChainSpec, states: np.ndarray, x: complex, reverse: bool = False) -> np.ndarray:
    """One row of R-matrices applied to a stack of states (B, 2, 2^L): the
    auxiliary axis, then the sites, site 1 the most significant.

    Forward, R_0a(x - th_a) for a = 1, ..., L in turn: T_0(x).  Reversed,
    sigma_y R_0a^t0(x - th_a) sigma_y for a = L, ..., 1: sigma_y T_0^t0(x)
    sigma_y.  Both are six-vertex, with the weights of :func:`_weights`; a
    site costs O(B 2^L).
    """
    n, batch = chain.n_sites, states.shape[0]
    for a in reversed(range(n)) if reverse else range(n):
        wa, wb, wc = _weights(chain, x, a, reverse)
        s = states.reshape(batch, 2, 2**a, 2, 2 ** (n - 1 - a))  # aux, before, site a, after
        states = np.empty_like(s)
        states[:, 0, :, 0] = wa * s[:, 0, :, 0]
        states[:, 1, :, 1] = wa * s[:, 1, :, 1]
        states[:, 0, :, 1] = wb * s[:, 0, :, 1] + wc * s[:, 1, :, 0]
        states[:, 1, :, 0] = wb * s[:, 1, :, 0] + wc * s[:, 0, :, 1]
    return states.reshape(batch, 2, 2**n)


def _apply_monodromy(chain: ChainSpec, u: complex, states: np.ndarray) -> np.ndarray:
    """T_0(u), or on open chains U_-(u) = T(u) K(u - eta/2, xi_-) sigma_y
    T^t(-u) sigma_y, applied to a stack of states (B, 2, 2^L)."""
    if not chain.is_open:
        return _row(chain, states, u)
    states = _row(chain, states, -u, reverse=True)
    k = _k_diag(chain._bracket, u - chain.eta / 2, chain.xi_minus)
    return _row(chain, k[:, None] * states, u)


def _apply_transfer(chain: ChainSpec, u: complex, vec: np.ndarray) -> np.ndarray:
    """t(u) vec without building t(u): the auxiliary entries (0, 0) and (1, 1)
    of the monodromy applied to e_0 (x) vec and e_1 (x) vec, summed (closed) or
    weighted by K(u + eta/2, xi_+) (open) as in :func:`transfer_matrix`."""
    states = np.zeros((2, 2, vec.size), dtype=complex)
    states[0, 0] = states[1, 1] = vec
    diag = _apply_monodromy(chain, u, states)[[0, 1], [0, 1]]
    if chain.is_open:
        return _k_diag(chain._bracket, u + chain.eta / 2, chain.xi_plus) @ diag
    return diag[0] + diag[1]


def bethe_vector(chain: ChainSpec, roots: BetheRoots) -> np.ndarray:
    """Product of creation operators B(u_k) on the all-up reference state.

    Closed chains use B(u) from the one-row monodromy, open chains the (1,2)
    entry of the double-row monodromy.  Each is applied to the state
    matrix-free: the monodromy acts on e_1 (x) psi and auxiliary entry 0 is
    kept, at O(L 2^L) per root, so spin-1/2 chains up to L = 14 are taken.
    """
    _check_oracle(chain.n_sites, chain.spins, MATRIX_FREE_MAX_SITES)
    vec = np.zeros(2**chain.n_sites, dtype=complex)
    vec[0] = 1.0
    for ui in roots.values:
        states = np.zeros((1, 2, vec.size), dtype=complex)
        states[0, 1] = vec
        vec = _apply_monodromy(chain, ui, states)[0, 0]
    return vec


@dataclass
class RootCertificate:
    """Collinearity report of t(u)*v against the Bethe state v of a root set.

    ``degenerate`` marks a state whose norm is below 1e-12; its residual is
    then inf and its eigenvalue 0.
    """

    residual: float
    eigenvalue: complex
    degenerate: bool = False


def certify_roots(chain: ChainSpec, roots: BetheRoots) -> RootCertificate:
    """Check that the Bethe state of ``roots`` is an eigenvector of t(PROBE_U).

    The residual is |t v - lam v| / (|v| (1 + |lam|)) at the Rayleigh quotient
    lam.  Both the state and t(u) times it are applied matrix-free
    (:func:`bethe_vector`); no dense t is built.
    """
    validate_roots(chain, roots)
    vec = bethe_vector(chain, roots)
    norm = float(np.linalg.norm(vec))
    if norm < 1e-12:
        return RootCertificate(residual=float("inf"), eigenvalue=0j, degenerate=True)
    tv = _apply_transfer(chain, PROBE_U, vec)
    lam = complex(np.vdot(vec, tv) / np.vdot(vec, vec))
    res = float(np.linalg.norm(tv - lam * vec) / (norm * (1.0 + abs(lam))))
    return RootCertificate(residual=res, eigenvalue=lam)
