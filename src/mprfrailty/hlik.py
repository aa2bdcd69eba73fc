"""Hierarchical likelihood core: h, its gradient, and curvature.

The joint log-likelihood of the data and the frailties is

    h = sum_ij ell1_ij + sum_i ell2_i,

where ell1 is the conditional log-density of an (possibly censored)
observation given its cluster's frailties and ell2 is the log-density of
the frailty pair.  Fixed and random effects are estimated by maximizing
h jointly; dispersion parameters by maximizing the adjusted profile
likelihood p = h - 0.5*log det(H/2pi) with H the observed information of
(theta, v).  This module evaluates all of those pieces analytically for
every frailty structure and baseline family.

Apart from one cache, everything here is a pure function of its inputs.
The design keeps the last pass over the records for its family, loading
L and x: the accepted step of a Newton iteration, Step 2's batched
profile, the next sweep's first Newton assembly and the final re-solve
take it from there, with the same bits.  Each fit builds its own design;
the pass is replaced as one attribute and used only at an equal key.

Importing this module loads numpy alone.  The Cholesky factorizations
call LAPACK's dpotrf and dpotrs through scipy.linalg, which loads at a
process's first factorization (``_bind_lapack``).
"""

import math
from dataclasses import dataclass
from functools import cache, cached_property
from types import SimpleNamespace

import numpy as np

from .baselines import BASELINES, normalize_family
from .data import LINPRED_MAX, combine
from .errors import CurvatureError, DivergedIterateError, EvaluationError

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class HlikValue:
    """h split into its data part (ell1) and frailty part (ell2)."""

    h: float
    ell1_sum: float
    ell2_sum: float


@dataclass(frozen=True)
class ParamLayout:
    """Index layout of the stacked (theta, u) parameter vector.

    Order is [beta, alpha, u_1, ..., u_k]: the fixed effects, then one
    block of q per free frailty component of the structure's law.  Block
    j holds the frailty ``free[j]`` (0: v_beta, 1: v_alpha); a frailty
    derived from the others (v_alpha = phi * v_beta under CF) has none.
    """

    m_beta: int
    m_alpha: int
    q: int
    free: tuple

    @classmethod
    def for_spec(cls, design, spec):
        return cls(design.m_beta, design.m_alpha, design.q, spec.law.free)

    @cached_property
    def m(self):
        return self.m_beta + self.m_alpha

    @cached_property
    def k(self):
        return len(self.free)

    @cached_property
    def dim(self):
        return self.m + self.q * self.k

    @property
    def sl_beta(self):
        return slice(0, self.m_beta)

    @property
    def sl_alpha(self):
        return slice(self.m_beta, self.m)

    def block(self, j):
        """Slice of free frailty block j."""
        start = self.m + j * self.q
        return slice(start, start + self.q)

    def pack(self, beta, alpha, v_beta=None, v_alpha=None):
        x = np.empty(self.dim)
        x[self.sl_beta] = beta
        x[self.sl_alpha] = alpha
        for j, r in enumerate(self.free):
            v = (v_beta, v_alpha)[r]
            x[self.block(j)] = 0.0 if v is None else v
        return x

    def unpack(self, x):
        """(beta, alpha, u) with u the k x q free frailty blocks, as views of x."""
        return x[self.sl_beta], x[self.sl_alpha], x[self.m:].reshape(self.k, self.q)

    # positions in the dim x dim matrix flattened in Fortran order, the layout
    # LAPACK factors in place; see Curvature._dense

    @cached_property
    def d_index(self):
        """(k, k, q): the position of entry (j, l) of every D_i."""
        v = self.m + np.arange(self.k)[:, None] * self.q + np.arange(self.q)
        return v[:, None] + v[None, :] * self.dim

    @cached_property
    def dense_index(self):
        """The positions of A, B (k, m, q), B' and D, each flattened in C order, as one index."""
        a = np.arange(self.m)[:, None]
        v = (self.m + np.arange(self.k)[:, None] * self.q + np.arange(self.q))[:, None, :]
        return np.concatenate([(a + a.T * self.dim).ravel(), (a + v * self.dim).ravel(),
                               (v + a * self.dim).ravel(), self.d_index.ravel()])


# The closed forms below take Sigma as (standard deviations, correlation),
# see FrailtyLaw.sigma: ``sig`` (k x npts) holds the standard deviations of
# the components and ``rho`` (npts) their correlation at each of npts
# points.  Only the quadratic forms of ell2 are numpy expressions, one
# (npts, q) array for the whole stack; the rest is scalar arithmetic per
# point, cheaper than a numpy call at a handful of points, with
# logarithms from math.log and squares from Python's float power (numpy's
# log and square differ from both in the last bit on about 0.1% of inputs).


def _ell2_total(sig, rho, q, u):
    """sum_i ell2_i, the log-density of the free components u (k x q), at each point, as a list."""
    if len(sig) == 0:
        return [0.0] * len(rho)
    if len(sig) == 1:
        half = 0.5 * float(np.sum(u[0]**2))
        return [-q * (0.5 * LOG_2PI + math.log(s)) - half / s**2 for s in sig[0].tolist()]
    ub, ua = u[:, None, :] / sig[:, :, None]
    quads = (ub**2 + ua**2 - 2.0 * rho[:, None] * ub * ua).sum(axis=1)
    out = []
    for sb, sa, r, quad in zip(*sig.tolist(), rho.tolist(), quads.tolist()):
        omr = 1.0 - r * r
        out.append(-q * (LOG_2PI + math.log(sb) + math.log(sa) + 0.5 * math.log(omr))
                   - 0.5 * quad / omr)
    return out


def _penalty_blocks(sig, rho):
    """(npts, k, k): at each point P = Sigma^-1, the block -ell2 adds to every D_i."""
    k = len(sig)
    if k < 2:
        return np.array([1.0 / s**2 for col in sig.tolist() for s in col]).reshape(len(rho), k, k)
    out = []
    for sb, sa, r in zip(*sig.tolist(), rho.tolist()):
        c = 1.0 / (1.0 - r * r)
        cross = -c * r / (sb * sa)
        out += (c / sb**2, cross, cross, c / sa**2)
    return np.array(out).reshape(len(rho), 2, 2)


def _penalty_score(sig, rho, u):
    """Gradient of -ell2 w.r.t. each free component, as a list of k vectors."""
    if not sig:
        return []
    if len(sig) == 1:
        return [u[0] / sig[0]**2]
    sb, sa = sig
    vb, va = u
    c = 1.0 / (1.0 - rho * rho)
    return [c * (vb / sb**2 - rho * va / (sb * sa)), c * (va / sa**2 - rho * vb / (sb * sa))]


# Up to this many (theta, v) coordinates a log-determinant and a Newton solve
# factor one dense matrix, above it the Schur complement of the frailty blocks.
# BVNF log-dets, single-threaded OpenBLAS on a 2-CPU x86-64 box, dense vs
# Schur: a 7-point stencil 67 vs 38 us at dim 46, 101 vs 41 at dim 66 and
# 7687 vs 95 at dim 406; one point 27 vs 30 us at dim 46, 25 vs 33 at dim
# 66 and 231 vs 46 at dim 206.  The Newton solve ties at dim 86.  So Step 2's
# stencils are faster on the Schur side from dim 46 on, but the bound stays:
# moving it moves the bits of every fit whose dim it crosses.  At 40, all 20
# BVNF fits of the benchmark's mc-heavy-censor scenario (dim 46) change, and
# the deviances of replicates 8, 9 and 13 move by 0.07, 0.18 and 5.2.
DENSE_MAX_DIM = 60

# the relative ridges solve_ascent tries, in order, once H itself is not PD
_RIDGES = (1e-8, 1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4)

# points whose closed-form (D_i + P)^-1 and S the Schur side forms at once (a
# 3-parameter gradient stencil);
# all 19 of a Hessian stencil at once raised a BVNF fit's peak memory at q = 20,000 by 40 MB
_SCHUR_POINTS = 7


# the LAPACK routines behind scipy.linalg.cho_factor and cho_solve, called
# without their checks; positional (lower=1, clean=0, overwrite_a=1) and
# (lower=1): keywords cost 0.7 us a call.  scipy.linalg loads at the first
# factorization, not at import: the two stubs below rebind both names to the
# f2py routines on their first call, so every later call is the direct one.
def _bind_lapack():
    global _POTRF, _POTRS
    from scipy.linalg.lapack import dpotrf as _POTRF, dpotrs as _POTRS


def _POTRF(*args, **kwargs):
    _bind_lapack()
    return _POTRF(*args, **kwargs)


def _POTRS(*args, **kwargs):
    _bind_lapack()
    return _POTRS(*args, **kwargs)


def _cholesky(H):
    """The lower Cholesky factor of H, the bits of ``cho_factor(H, lower=True)[0]``.

    Every caller passes a temporary: a Fortran-order H is factored in place,
    any other is copied first.
    """
    c, info = _POTRF(H, 1, 0, 1)
    if info != 0:
        raise CurvatureError("information matrix is not positive definite")
    return c


# the entries (j, l), j <= l, of a k x k frailty block in the order the closed
# forms stack them; where entry (j, l) of the full block sits in that order;
# and the (rows, cols) of the entries whose cofactors they are, (0, 0) <-> (1, 1)
_PAIRS = {0: (), 1: ((0, 0),), 2: ((0, 0), (0, 1), (1, 1))}
_PAIR_OF = {0: np.zeros((0, 0), dtype=int), 1: [[0]], 2: [[0, 1], [1, 2]]}
_COFACTORS = {k: tuple(np.array(ix, dtype=np.intp) for ix in zip(*pairs[::-1]))
              for k, pairs in _PAIRS.items() if k}


def _block_inverse(D, Ps):
    """(E, logdet): every (D_i + P)^-1 in closed form, for each P of a stack Ps (npts, k, k).

    ``E`` (npts, k(k+1)/2, q) holds the entries ``_PAIRS[k]`` of each
    (D_i + P)^-1 and ``logdet`` (npts) the sum_i log det(D_i + P).  At a
    point where some D_i + P is not positive definite the log-det is nan
    and that point's E is finite but meaningless.
    """
    k = D.shape[0]
    if k == 0:
        return np.empty((len(Ps), 0, D.shape[-1])), np.zeros(len(Ps))
    # the entries of every D_i + P, each where its cofactor goes in the inverse
    rows, cols = _COFACTORS[k]
    E = D[rows, cols] + Ps[:, rows, cols, None]
    d00 = E[:, -1]
    det = d00 if k == 1 else d00 * E[:, 0] - E[:, 1] * E[:, 1]
    # D_i + P is PD where d00 and det are positive; nan is not
    all_ok = bool(d00.min() > 0 and det.min() > 0)
    if not all_ok:
        ok = np.minimum(d00, det).min(axis=1) > 0
        det = np.where(ok[:, None], det, 1.0)  # finite where unused
    logdet = np.log(det).sum(axis=1)
    if k == 1:
        np.divide(1.0, det, out=E[:, 0])
    else:
        E /= det[:, None]
        np.negative(E[:, 1], out=E[:, 1])
    if not all_ok:
        logdet[~ok] = np.nan
    return E, logdet


@cache
def _lower_index(m):
    """(rows, cols, positions) of the lower triangle of an m x m block.

    Its entries (b, a), taken in the ``np.triu_indices(m)`` order of (a, b),
    and their positions in the block flattened in Fortran order; kept per m,
    since every Evaluator has a layout of its own.
    """
    a, b = np.triu_indices(m)
    return b, a, b + a * m


def _border_products(B):
    """O (m(m+1)/2, k(k+1)/2 * q): the packed products of the border B (k, m, q).

    Row (a, b), a <= b in ``np.triu_indices(m)`` order, column p * q + i
    holds entry (a, b) of B_j[:, i] B_l[:, i]' for the pair (j, l) =
    ``_PAIRS[k][p]``, plus its transpose where j < l; so the Schur
    complement at a point is A - O e, with e the point's closed-form
    entries of every (D_i + P)^-1 flattened.  Filled a row of a at a time,
    so that its temporaries are at most m x q.
    """
    k, m, q = B.shape
    O = np.empty((m * (m + 1) // 2, len(_PAIRS[k]) * q))
    row = 0
    for a in range(m):
        rows = slice(row, row + m - a)
        for p, (j, l) in enumerate(_PAIRS[k]):
            out = O[rows, p * q:(p + 1) * q]
            np.multiply(B[j, a], B[l, a:], out=out)
            if j != l:
                out += B[l, a] * B[j, a:]
        row += m - a
    return O


class Curvature:
    """Observed information of (theta, v) in bordered block-diagonal form.

        H = [[A, B], [B', D]],    D = diag(D_1, ..., D_q)

    Each cluster's frailties enter h only through theta and themselves, so
    H is an m x m fixed-effect block A, a border B and q independent k x k
    blocks D_i, one per cluster (k <= 2 free frailty components).
    ``B[j]`` (m x q) is the border of component j, ``D[j, l]`` (length
    q) holds entry (j, l) of every D_i, and ``P`` is the k x k frailty
    precision included in each D_i (zero without the penalty).

    The log-determinant, Newton solve and inverse blocks go through the
    Schur complement S = A - B D^-1 B' with closed-form D_i^-1: O(q m^2 k
    + m^3) time and O(q m k) memory instead of O(dim^3) and dim^2.  Up to
    DENSE_MAX_DIM coordinates the log-determinant and the solve factor
    ``to_dense()`` instead; the inverse blocks, formed once per fit,
    always take the Schur path.  Every method raises
    :class:`CurvatureError` when H is not positive definite, except
    ``logdet``, which marks such a point nan.

    The Schur-side log-dets of a stack of npts precisions are elementwise
    arithmetic on (npts, q) arrays and one stacked product against the
    packed border products (``_border_products``): O(npts q m^2 k^2)
    flops.  The penalty-free curvature builds those products at the first
    Schur-side log-det of any curvature made from it, in O(q m^2 k^2), and
    keeps them: 8 m(m+1)/2 k(k+1)/2 q bytes, 10 MB for BVNF with m = 6 at
    q = 20,000.  A 7-point BVNF stencil at dim 406 took 281 us with W and
    S by ``einsum`` point by point and takes 95 us, after a build of about
    100 us once per data part.  The solve and the inverse blocks, one
    point each, keep W and S by ``einsum``: the inverse blocks carry every
    fit's standard errors, dense side included, and a point's products
    cost more to build than that ``einsum``.

    The dense matrix is one scatter through ``layout.dense_index`` and the
    dense side calls LAPACK directly: at dim 46 (BVNF, q = 20) ``to_dense``
    took 24 us block by block and takes 9 us, ``solve_ascent`` 79 -> 28 us
    (medians of interleaved rounds on a shared 2-CPU x86-64 box).
    """

    def __init__(self, layout, A, B, D, P, root=None):
        self.layout = layout
        self.A, self.B, self.D, self.P = A, B, D, P
        self._flat = None  # _dense(), kept by the first log-det
        # the penalty-free curvature this one was made from, None for that one itself
        self._root = root

    @property
    def _base(self):
        """The penalty-free curvature this one was made from, which keeps the border products."""
        return self if self._root is None else self._root

    @cached_property
    def _products(self):
        """``_border_products(B)``, formed at the first Schur-side log-det made from this one."""
        return _border_products(self.B)

    @property
    def dim(self):
        return self.layout.dim

    @property
    def _dense_side(self):
        return self.dim <= DENSE_MAX_DIM

    def _dense(self):
        """The full matrix flattened in Fortran order, a new array.

        One scatter through ``layout.dense_index``; A is copied as it is, so
        the lower triangle that LAPACK reads holds A's lower triangle.
        """
        flat = np.zeros(self.dim * self.dim)
        flat[self.layout.dense_index] = np.concatenate(
            (self.A.ravel(), self.B.ravel(), self.B.ravel(), self.D.ravel()))
        return flat

    def to_dense(self):
        """The full symmetric matrix in :class:`ParamLayout` order (Fortran-ordered)."""
        return self._dense().reshape(self.dim, self.dim, order="F")

    def __array__(self, dtype=None, copy=None):
        # numpy functions given a Curvature see the dense matrix
        return np.asarray(self.to_dense(), dtype=dtype)

    def diagonal(self):
        k = self.D.shape[0]
        return np.concatenate([np.diag(self.A)] + [self.D[j, j] for j in range(k)])

    def with_penalty(self, P):
        """This curvature with the k x k precision P added to every D_i."""
        return Curvature(self.layout, self.A, self.B, self.D + P[:, :, None], self.P + P,
                         self._base)

    def _ridged(self, r):
        """H + diag(r); r is a full-length vector."""
        m, k, q = self.A.shape[0], self.D.shape[0], self.layout.q
        A = self.A + np.diag(r[:m])
        D = self.D.copy()
        for j in range(k):
            D[j, j] += r[m + j * q: m + (j + 1) * q]
        return Curvature(self.layout, A, self.B, D, self.P, self._base)

    def logdet(self, P):
        """npts log-dets for a stack P (npts, k, k) of frailty precisions.

        Entry j is log det of H with P[j] added to every D_i, nan where that
        sum is not positive definite.
        """
        return self._logdet_dense(P) if self._dense_side else self._logdet_schur(P)

    def solve(self, g):
        """H^-1 g."""
        return self._solve_dense(g) if self._dense_side else self._solve_schur(g)

    def inverse_blocks(self):
        """(S^-1, the q diagonal k x k blocks of H^-1 stacked like D).

        S^-1 is the theta block of H^-1, the covariance of the fixed
        effects; block i of the second array is the covariance of v_i:
        (H^-1)_vv = D^-1 + W' S^-1 W, of which only the D_i-sized blocks
        are formed.
        """
        Dinv, W, factor = self._schur()
        cov_theta = _POTRS(factor, np.eye(self.A.shape[0]), 1)[0]
        sw = np.einsum("ab,lbi->lai", cov_theta, W)
        return cov_theta, Dinv + np.einsum("jai,lai->jli", W, sw)

    def solve_ascent(self, g):
        """Solve H d = g for a Newton ascent direction; returns (d, ridge).

        When H is not positive definite a relative ridge escalating from
        1e-8 is added.  Far from the optimum the observed information can be
        indefinite (negative shape weights under heavy censoring), where
        large shifts turn the step into scaled gradient ascent; the caller's
        step-halving still guards it.
        """
        try:
            return self.solve(g), 0.0
        except CurvatureError:
            pass
        # the ridge's scale, formed only once H itself has failed
        diag = np.abs(self.diagonal())
        scale = np.where(diag > 0, diag, 1.0)
        for lam in _RIDGES:
            try:
                return self._ridged(lam * scale).solve(g), lam
            except CurvatureError:
                continue
        raise CurvatureError("observed information is singular beyond repair")

    # dense LAPACK on _dense(), for the log-det and solve at small dim

    def _logdet_dense(self, Ps):
        # the log-dets of H + each P of the stack Ps, nan where not PD; row i of the
        # stack is a copy of the kept matrix with D + P[i] for its D_i entries, and
        # row i viewed (dim, dim) and transposed is that matrix in Fortran order,
        # which the factorization overwrites in place
        if self._flat is None:
            self._flat = self._dense()
        n, dim = len(Ps), self.dim
        stack = np.empty((n, dim * dim))
        stack[:] = self._flat
        stack[:, self.layout.d_index] = self.D + Ps[..., None]
        ok = np.array([_POTRF(H.T, 1, 0, 1)[1] == 0 for H in stack.reshape(n, dim, dim)])
        out = np.full(n, np.nan)
        # the selected diagonals are a C-ordered copy, so that each row's sum is
        # pairwise, as for one point
        out[ok] = 2.0 * np.log(stack[:, ::dim + 1][ok]).sum(axis=1)
        return out

    def _solve_dense(self, g):
        return _POTRS(_cholesky(self.to_dense()), g, 1)[0]

    # Schur complement of the frailty blocks: the log-det and solve at large dim

    def _schur(self):
        """(D^-1 stacked like D, W = B D^-1, lower Cholesky factor of S = A - W B')."""
        E, logdet = _block_inverse(self.D, np.zeros((1,) + self.P.shape))
        if np.isnan(logdet[0]):
            raise CurvatureError("a frailty block of the information is not positive definite")
        Dinv = E[0][_PAIR_OF[len(self.D)]]
        W = np.einsum("lai,lji->jai", self.B, Dinv)
        return Dinv, W, _cholesky(self.A - np.einsum("jai,jbi->ab", W, self.B))

    def _logdet_schur(self, Ps):
        # as _logdet_dense, for _SCHUR_POINTS points at a time: the closed-form
        # (D_i + P)^-1 and the lower triangle of each point's S = A - O e, one row
        # of one stacked product, written into a row of the stack in the
        # Fortran order that the factorization overwrites in place.  Each point
        # is a GEMV of its own, so its bits do not depend on the batch (a 2-D
        # product is a GEMV for one row and a GEMM for more)
        m = self.A.shape[0]
        rows, cols, positions = _lower_index(m)
        A = self.A[rows, cols]
        O = self._base._products
        out = []
        for lo in range(0, len(Ps), _SCHUR_POINTS):
            E, logdet = _block_inverse(self.D, Ps[lo:lo + _SCHUR_POINTS])
            n = len(E)
            S = np.zeros((n, m * m))
            S[:, positions] = A - (E.reshape(n, 1, -1) @ O.T)[:, 0]
            factored = S.reshape(n, m, m).transpose(0, 2, 1)  # each point's S, Fortran-ordered
            ok = np.array([pd and _POTRF(s, 1, 0, 1)[1] == 0
                           for s, pd in zip(factored, (~np.isnan(logdet)).tolist())])
            # as in _logdet_dense, each row's sum pairwise as for one point
            if ok.all():
                logdet += 2.0 * np.log(S[:, ::m + 1]).sum(axis=1)
            else:
                logdet[ok] += 2.0 * np.log(S[:, ::m + 1][ok]).sum(axis=1)
                logdet[~ok] = np.nan
            out.append(logdet)
        return np.concatenate(out)

    def _solve_schur(self, g):
        Dinv, W, factor = self._schur()
        m, k = self.A.shape[0], self.D.shape[0]
        dg = np.einsum("jli,li->ji", Dinv, g[m:].reshape(k, self.layout.q))
        x_t = _POTRS(factor, g[:m] - np.einsum("jai,ji->a", self.B, dg), 1)[0]
        x_v = dg - np.einsum("jai,a->ji", W, x_t)
        return np.concatenate([x_t, x_v.ravel()])

    def df_c(self, blocks):
        """tr(H^-1 H*) = dim - sum_i tr((H^-1)_ii P), with H* = H - diag(P).

        ``blocks`` are the diagonal blocks of H^-1 from :meth:`inverse_blocks`.
        """
        return self.dim - float(np.einsum("jli,lj->", blocks, self.P))


# D_v's entries (0, 0), (0, 1) and (1, 1), Z'diag(w)Z for w_beta, w_ba and
# w_alpha, as (component c, frailty r) of the cluster sums whose intercept
# row they are, see Evaluator._assemble_information
_D_ENTRIES = ((0, 0), (0, 1), (1, 1))


class Evaluator:
    """Likelihood machinery bound to one (family, design, structure).

    Operates on the stacked parameter vector of :class:`ParamLayout`,
    which is what the Newton solver iterates on.  Dispersion parameters
    live in ``spec`` and are fixed for the lifetime of the object; the
    frailties enter through the structure's law v = L u (see
    :class:`~mprfrailty.data.FrailtyLaw`).

    The evaluator keeps nothing of a pass: the design keeps the last one of
    any evaluator (:meth:`_kept`), and the score itself is built only by
    :meth:`h_score_info`.  Every cluster sum is a product of record
    weights with one of ``design.cluster_sums``.
    """

    def __init__(self, family, design, spec):
        self.family = normalize_family(family)
        self.design = design
        self.spec = spec
        self._base = BASELINES[self.family]
        self._law = spec.law
        disp = spec.dispersion()
        self._L = self._law.loading_at(disp)
        self._sigma = sig, rho = self._law.sigma(disp)
        # Sigma as the one-point stack the closed forms take
        self._sigma_cols = (np.array(sig, dtype=float).reshape(-1, 1), np.array([rho], dtype=float))
        # the columns of L and, for each entry (i, j) of L' D_v L, the weights
        # of the D_v entries (0, 0), (0, 1) and (1, 1) in it
        self._cols = [tuple(row[j] for row in self._L) for j in range(self._law.k)]
        self._d_weights = [
            (i, j, (ci[0] * cj[0], ci[0] * cj[1] + ci[1] * cj[0], ci[1] * cj[1]))
            for j, cj in enumerate(self._cols) for i, ci in enumerate(self._cols[:j + 1])]
        # the frailties (0: v_beta, 1: v_alpha) whose record weights enter
        self._need = tuple(r for r in (0, 1) if any(col[r] != 0.0 for col in self._cols))
        self.layout = ParamLayout.for_spec(design, spec)
        # s = exp(glogt) must stay inside the family's domain and finite
        self._max_glogt = min(math.log(self._base.max_s), LINPRED_MAX)

    # -- parameter expansion -------------------------------------------------

    def _frailties(self, u):
        """(v_beta, v_alpha) = L u; None for a frailty the structure holds at zero."""
        return [combine(row, u.__getitem__) for row in self._L]

    def unpack(self, x):
        """(beta, alpha, v_beta, v_alpha) at x as new arrays, zeros for an absent frailty."""
        beta, alpha, u = self.layout.unpack(x)
        v = [np.zeros(self.design.q) if w is None else np.array(w)
             for w in self._frailties(u)]
        return np.array(beta), np.array(alpha), v[0], v[1]

    def _predictors(self, x):
        d = self.design
        beta, alpha, u = self.layout.unpack(x)
        idx = d.cluster_index
        lp_b = d.X_beta @ beta
        lp_a = d.X_alpha @ alpha
        vb, va = self._frailties(u)
        if vb is not None:
            lp_b = lp_b + vb[idx]
        if va is not None:
            lp_a = lp_a + va[idx]
        if (np.abs(lp_b) > LINPRED_MAX).any() or (np.abs(lp_a) > LINPRED_MAX).any():
            raise DivergedIterateError("linear predictor overflow; damp the step")
        gamma = np.exp(lp_a)
        glogt = gamma * d.log_time
        if (glogt > self._max_glogt).any():
            raise DivergedIterateError("transformed time overflow; damp the step")
        tau = np.exp(lp_b)
        s = np.exp(glogt)
        return tau, gamma, s, glogt, u

    # -- record-level likelihood terms ----------------------------------------

    def _ell1_sum(self, tau, gamma, s, Lam0):
        """sum_ij ell1_ij from the predictors and Lam0 = Lambda0(s)."""
        d = self.design
        ell1 = (d.status * (np.log(tau) + np.log(gamma) + (gamma - 1.0) * d.log_time
                            + self._base.log_hazard(s))
                - tau * Lam0)
        ell1_sum = float(ell1.sum())
        if not math.isfinite(ell1_sum):
            bad = int(np.argmax(~np.isfinite(ell1)))
            raise EvaluationError("non-finite conditional log-likelihood", index=bad)
        return ell1_sum

    def _parts(self, ell1_sum, u):
        """h, ell1 and ell2 from the ell1 sum and the free frailty components u."""
        ell2_sum = _ell2_total(*self._sigma_cols, self.design.q, u)[0]
        return HlikValue(h=ell1_sum + ell2_sum, ell1_sum=ell1_sum, ell2_sum=ell2_sum)

    def _record_terms(self, tau, s, glogt, Lam0):
        """U vectors and information weights, all length n."""
        d = self.design
        delta = d.status
        lam0, dlam0, d2lam0 = self._base.hazard(s)
        a = dlam0 / lam0
        s_a = s * a
        delta_1sa = delta * (1.0 + s_a)
        tau_s_lam0 = tau * (s * lam0)
        tau_Lam0 = tau * Lam0
        u_beta = delta - tau_Lam0
        u_alpha = delta + (delta_1sa - tau_s_lam0) * glogt
        w_beta = tau_Lam0
        w_ba = tau_s_lam0 * glogt
        inner = delta * (s * (d2lam0 / lam0) + a - s_a * a) - tau * (lam0 + s * dlam0)
        w_alpha = -(delta_1sa + glogt * s * inner - tau_s_lam0) * glogt
        return u_beta, u_alpha, w_beta, w_alpha, w_ba

    # -- cluster reductions ----------------------------------------------------

    def _cluster_sums(self, M, weights, m):
        """{r: M @ weights[r] as m x q} for every frailty r whose weights enter.

        ``M`` is one of ``design.cluster_sums``.  One product per weight
        vector: on a 2-CPU x86-64 box, scipy's product with an n x 2 stack
        took 27 us against 2 x 8 us at n = 5000, and 297 us against
        2 x 118 us at n = 100,000.
        """
        return {r: (M @ weights[r]).reshape(m, self.design.q) for r in self._need}

    # -- public evaluations ------------------------------------------------------

    def _kept(self, x, data=False):
        """The pass over the records at x for this family and L, kept as ``design.kept_pass``.

        Reused at an equal (family, L, x), else made anew with its ``key``, a
        copy ``x``, ``predictors`` (tau, s, glogt, Lambda0) and ``ell1_sum``.
        ``data`` holds the score's record terms and the penalty-free
        information once asked for, and ``h`` the (spec, HlikValue) of the
        last :meth:`h` call at x, (None, None) before one.
        """
        key = (self.family, self._L)
        kept = self.design.kept_pass
        if kept is None or kept.key != key or not np.array_equal(kept.x, x):
            tau, gamma, s, glogt, _ = self._predictors(x)
            Lam0 = self._base.cumhaz(s)
            self.design.kept_pass = kept = SimpleNamespace(
                key=key, x=np.array(x), predictors=(tau, s, glogt, Lam0),
                ell1_sum=self._ell1_sum(tau, gamma, s, Lam0), data=None, h=(None, None))
        if data and kept.data is None:
            u_beta, u_alpha, *weights = self._record_terms(*kept.predictors)
            kept.data = (u_beta, u_alpha), self._assemble_information(*weights)
        return kept

    def h_parts(self, x):
        kept = self._kept(x)
        kept.h = (self.spec, self._parts(kept.ell1_sum, self.layout.unpack(x)[2]))
        return kept.h[1]

    def h(self, x):
        return self.h_parts(x).h

    def _assemble_score(self, u_beta, u_alpha, u):
        # the frailty block is L' (Z'U_beta, Z'U_alpha) minus the penalty score
        d, lay = self.design, self.layout
        g = np.empty(lay.dim)
        g[lay.sl_beta] = d.X_beta.T @ u_beta
        g[lay.sl_alpha] = d.X_alpha.T @ u_alpha
        zu = self._cluster_sums(d.cluster_sums[0], (u_beta, u_alpha), 1)
        pen = _penalty_score(*self._sigma, u)
        for j, col in enumerate(self._cols):
            g[lay.block(j)] = combine(col, lambda r: zu[r][0]) - pen[j]
        if not np.isfinite(g).all():
            raise EvaluationError("non-finite score entry")
        return g

    @cached_property
    def _penalty(self):
        """P = Sigma^-1 (k x k), which the penalty adds to every D_i."""
        return _penalty_blocks(*self._sigma_cols)[0]

    def information(self, x, penalty=True):
        H = self.data_part(x)[1]
        return H.with_penalty(self._penalty) if penalty else H

    def data_part(self, x):
        """(ell1 sum, penalty-free information) at x.

        Equal to ``(h_parts(x).ell1_sum, information(x, penalty=False))``:
        the part of the adjusted profile that the frailty law's Sigma does
        not enter.  The score is not built.
        """
        kept = self._kept(x, data=True)
        return kept.ell1_sum, kept.data[1]

    def _assemble_information(self, w_beta, w_alpha, w_ba):
        # with the information of (theta, v) written [[A, B_v], [B_v', D_v]],
        # the penalty-free one of (theta, u) has border B_v L and frailty
        # blocks L' D_v L; the penalty P is added by Curvature.with_penalty
        d, lay = self.design, self.layout
        Xb, Xa = d.X_beta, d.X_alpha
        m_b = lay.m_beta
        A = np.empty((lay.m,) * 2)
        A[:m_b, :m_b] = (Xb * w_beta[:, None]).T @ Xb
        A[:m_b, m_b:] = (Xb * w_ba[:, None]).T @ Xa
        A[m_b:, :m_b] = A[:m_b, m_b:].T
        A[m_b:, m_b:] = (Xa * w_alpha[:, None]).T @ Xa

        k = lay.k
        B = np.empty((k, lay.m, d.q))
        D = np.empty((k, k, d.q))
        # sums[c][r]: the cluster sums of frailty r's record weights against
        # the covariates of the scale (c = 0) and shape (c = 1) components
        _, S_b, S_a = d.cluster_sums
        sums = (self._cluster_sums(S_b, (w_beta, w_ba), m_b),
                self._cluster_sums(S_a, (w_ba, w_alpha), lay.m_alpha))
        for j, col in enumerate(self._cols):
            B[j, :m_b] = combine(col, sums[0].__getitem__)
            B[j, m_b:] = combine(col, sums[1].__getitem__)

        def z_sum(e):
            # entry e of D_v is the intercept row of one of those sums
            c, r = _D_ENTRIES[e]
            return sums[c][r][0]

        for i, j, weights in self._d_weights:
            D[i, j] = D[j, i] = combine(weights, z_sum)

        if not (np.isfinite(A).all() and np.isfinite(B).all() and np.isfinite(D).all()):
            raise EvaluationError("non-finite information weight")
        return Curvature(lay, A, B, D, np.zeros((k, k)))

    def h_score_info(self, x):
        """(HlikValue, score, information) at x from the kept pass of :meth:`_kept`.

        h is the kept one when :meth:`h` made it at x under this spec (the
        accepted step of a Newton iteration).
        """
        kept = self._kept(x, data=True)
        (u_beta, u_alpha), H = kept.data
        u = self.layout.unpack(x)[2]
        parts = kept.h[1] if kept.h[0] == self.spec else self._parts(kept.ell1_sum, u)
        g = self._assemble_score(u_beta, u_alpha, u)
        return parts, g, H.with_penalty(self._penalty)


def logdet_pd(H, P):
    """log det of the information, a :class:`Curvature`, plus each of a stack P.

    Each k x k frailty precision of ``P`` is added to every D_i first (see
    :meth:`Curvature.logdet`).  A point whose factorization fails is nan,
    rather than a log-det of the absolute values of its pivots.
    """
    return H.logdet(P)

