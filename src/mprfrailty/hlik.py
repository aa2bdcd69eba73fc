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
"""

import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import scipy.linalg

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


# The closed forms below take Sigma as (standard deviations, correlation),
# see FrailtyLaw.sigma.


def _ell2_total(sigs, rhos, q, u):
    """sum_i ell2_i, the log-density of the free components u (k x q), at each point.

    ``sigs`` holds k columns of standard deviations and ``rhos`` the
    correlations, one entry per point.  The quadratic forms are one
    (npts, q) expression; each point's constant is built from scalars.
    """
    if not sigs:
        return [0.0] * len(rhos)
    if len(sigs) == 1:
        half = 0.5 * np.sum(u[0]**2)
        return [float(-q * (0.5 * LOG_2PI + math.log(s)) - half / s**2) for s in sigs[0]]
    ub, ua = (u[j] / np.array(sigs[j])[:, None] for j in (0, 1))
    quads = (ub**2 + ua**2 - 2.0 * np.array(rhos)[:, None] * ub * ua).sum(axis=1).tolist()
    out = []
    for sb, sa, rho, quad in zip(*sigs, rhos, quads):
        omr = 1.0 - rho * rho
        const = -q * (LOG_2PI + math.log(sb) + math.log(sa) + 0.5 * math.log(omr))
        out.append(const - 0.5 * quad / omr)
    return out


def _penalty_blocks(sigs, rhos):
    """(npts, k, k): at each point P = Sigma^-1, the block -ell2 adds to every D_i."""
    k = len(sigs)
    if k < 2:
        return np.array([[1.0 / s**2 for s in col] for col in sigs]).T.reshape(len(rhos), k, k)
    out = []
    for sb, sa, rho in zip(*sigs, rhos):
        c = 1.0 / (1.0 - rho * rho)
        cross = -c * rho / (sb * sa)
        out.append(((c / sb**2, cross), (cross, c / sa**2)))
    return np.array(out)


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


# Up to this many (theta, v) coordinates a curvature is factored as one dense
# matrix, above it through the Schur complement of its frailty blocks.  One
# log-determinant including the dense assembly, single-threaded OpenBLAS on a
# 2-CPU x86-64 box, dense vs Schur: BVNF 18 vs 21 us at dim 46, a tie at dim
# 66, 102 vs 23 us at dim 206 and 793 vs 26 us at dim 406; ScF ties at dim 56.
# The Newton solve ties at dim 86 (BVNF).
DENSE_MAX_DIM = 60

_RIDGES = (0.0, 1e-8, 1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4)

# points whose D + P and D^-1 the Schur side forms at once (a 3-parameter gradient stencil);
# all 19 of a Hessian stencil at once raised a BVNF fit's peak memory at q = 20,000 by 40 MB
_SCHUR_POINTS = 7


# the LAPACK routine behind scipy.linalg.cho_factor, called without its checks
_POTRF = scipy.linalg.lapack.dpotrf


def _cholesky(H):
    """(c, lower) for ``cho_solve``: the lower Cholesky factor of H.

    The same factor, to the bit, as ``cho_factor(H, lower=True)``.
    """
    c, info = _POTRF(H, lower=1, clean=0)
    if info != 0:
        raise CurvatureError("information matrix is not positive definite")
    return c, True


def _block_inverse(D):
    """(D_i^-1 stacked like D, sum_i log det D_i) for each point of a stack D (npts, k, k, q).

    The log-det is nan at a point where some D_i is not positive definite,
    and the inverse is None when no point is.
    """
    k = D.shape[1]
    if k == 0:
        return D, np.zeros(len(D))
    det = D[:, 0, 0] if k == 1 else D[:, 0, 0] * D[:, 1, 1] - D[:, 0, 1] * D[:, 0, 1]
    ok = ((D[:, 0, 0] > 0) & (det > 0)).all(1)
    if not ok.any():
        return None, np.full(len(D), np.nan)
    det = det if ok.all() else np.where(ok[:, None], det, 1.0)  # finite where unused
    logdet = np.log(det).sum(axis=1)
    logdet[~ok] = np.nan
    if k == 1:
        return 1.0 / det[:, None, None], logdet
    inv = np.empty_like(D)
    inv[:, 0, 0], inv[:, 1, 1] = D[:, 1, 1], D[:, 0, 0]
    inv[:, 0, 1] = inv[:, 1, 0] = -D[:, 0, 1]
    inv /= det[:, None, None]
    return inv, logdet


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
    DENSE_MAX_DIM coordinates they factor ``to_dense()`` instead, which is
    faster there.  Every method raises :class:`CurvatureError` when H is
    not positive definite, except ``logdet`` of a penalty stack.
    """

    def __init__(self, layout, A, B, D, P):
        self.layout = layout
        self.A, self.B, self.D, self.P = A, B, D, P
        self._dense = None  # (to_dense() in Fortran order, flat index of each D_i entry)

    @property
    def dim(self):
        return self.layout.dim

    @property
    def _dense_side(self):
        return self.dim <= DENSE_MAX_DIM

    def _v_slices(self):
        return [self.layout.block(j) for j in range(self.layout.k)]

    def to_dense(self):
        """The full symmetric matrix in :class:`ParamLayout` order."""
        m = self.A.shape[0]
        H = np.zeros((self.dim, self.dim))
        H[:m, :m] = self.A
        qr = np.arange(self.layout.q)
        slices = self._v_slices()
        for j, sj in enumerate(slices):
            H[:m, sj] = self.B[j]
            H[sj, :m] = self.B[j].T
            for l, sl in enumerate(slices):
                H[sj, sl][qr, qr] = self.D[j, l]
        return H

    def __array__(self, dtype=None, copy=None):
        # numpy functions given a Curvature see the dense matrix
        return np.asarray(self.to_dense(), dtype=dtype)

    def diagonal(self):
        k = self.D.shape[0]
        return np.concatenate([np.diag(self.A)] + [self.D[j, j] for j in range(k)])

    def with_penalty(self, P):
        """This curvature with the k x k precision P added to every D_i."""
        return Curvature(self.layout, self.A, self.B, self.D + P[:, :, None], self.P + P)

    def _ridged(self, r):
        """H + diag(r); r is a full-length vector."""
        m, k, q = self.A.shape[0], self.D.shape[0], self.layout.q
        A = self.A + np.diag(r[:m])
        D = self.D.copy()
        for j in range(k):
            D[j, j] += r[m + j * q: m + (j + 1) * q]
        return Curvature(self.layout, A, self.B, D, self.P)

    def logdet(self, P=None):
        """log det H, or log det of H with the k x k precision P added to every D_i.

        For a stack P (npts, k, k), the array of the npts log-dets, nan where
        the sum is not positive definite; a single P is the one-row case.
        """
        Ps = None if P is None else np.reshape(P, (-1,) + self.D.shape[:2])
        out = self._logdet_dense(Ps) if self._dense_side else self._logdet_schur(Ps)
        if Ps is not None and np.ndim(P) == 3:
            return out
        if np.isnan(out[0]):
            raise CurvatureError("information matrix is not positive definite")
        return float(out[0])

    def solve(self, g):
        """H^-1 g."""
        return self._solve_dense(g) if self._dense_side else self._solve_schur(g)

    def inverse_blocks(self):
        """(S^-1, the q diagonal k x k blocks of H^-1 stacked like D).

        S^-1 is the theta block of H^-1, the covariance of the fixed
        effects; block i of the second array is the covariance of v_i.
        """
        if self._dense_side:
            return self._inverse_blocks_dense()
        return self._inverse_blocks_schur()

    def solve_ascent(self, g):
        """Solve H d = g for a Newton ascent direction; returns (d, ridge).

        When H is not positive definite a relative ridge escalating from
        1e-8 is added.  Far from the optimum the observed information can be
        indefinite (negative shape weights under heavy censoring), where
        large shifts turn the step into scaled gradient ascent; the caller's
        step-halving still guards it.
        """
        diag = np.abs(self.diagonal())
        scale = np.where(diag > 0, diag, 1.0)
        for lam in _RIDGES:
            H = self if lam == 0.0 else self._ridged(lam * scale)
            try:
                return H.solve(g), lam
            except CurvatureError:
                continue
        raise CurvatureError("observed information is singular beyond repair")

    # dense LAPACK on to_dense(), for small dim

    def _logdet_dense(self, Ps=None):
        # the log-dets of H + each P of the stack Ps (of H alone for None), nan where
        # not PD; the matrix and the positions of its D_i entries are kept for the scatter
        if self._dense is None:
            starts = np.array([sl.start for sl in self._v_slices()], dtype=np.intp)
            cells = np.arange(self.layout.q)
            rows = starts[:, None, None] + cells
            cols = starts[None, :, None] + cells
            self._dense = (np.asfortranarray(self.to_dense()), rows + cols * self.dim)
        dense, d_index = self._dense
        # stack[i].T is a Fortran-order copy of the kept matrix, whose lower
        # triangle the factorization reads, in place
        stack = np.empty((1 if Ps is None else len(Ps), self.dim, self.dim))
        stack[:] = dense.T
        if Ps is not None:
            stack.reshape(len(Ps), -1)[:, d_index] += Ps[..., None]
        # positional (lower=1, clean=0, overwrite_a=1): keywords cost 0.7 us a call
        ok = np.array([_POTRF(H.T, 1, 0, 1)[1] == 0 for H in stack])
        out = np.full(len(stack), np.nan)
        out[ok] = 2.0 * np.log(np.diagonal(stack, axis1=1, axis2=2)[ok]).sum(axis=1)
        return out

    def _solve_dense(self, g):
        return scipy.linalg.cho_solve(_cholesky(self.to_dense()), g, check_finite=False)

    def _inverse_blocks_dense(self):
        m, k = self.A.shape[0], self.D.shape[0]
        Hinv = scipy.linalg.cho_solve(_cholesky(self.to_dense()), np.eye(self.dim))
        slices = self._v_slices()
        blocks = np.empty((k, k, self.layout.q))
        for j, sj in enumerate(slices):
            for l, sl in enumerate(slices):
                blocks[j, l] = np.diag(Hinv[sj, sl])
        return Hinv[:m, :m].copy(), blocks

    # Schur complement of the frailty blocks, for large dim

    def _complement(self, Dinv):
        """(W = B D^-1, S = A - B D^-1 B') for one point's D^-1."""
        W = np.einsum("lai,lji->jai", self.B, Dinv)
        return W, self.A - np.einsum("jai,jbi->ab", W, self.B)

    def _schur(self):
        """(D^-1, W, Cholesky factor of S)."""
        Dinv, _ = _block_inverse(self.D[None])
        if Dinv is None:
            raise CurvatureError("a frailty block of the information is not positive definite")
        W, S = self._complement(Dinv[0])
        return Dinv[0], W, _cholesky(S)

    def _logdet_schur(self, Ps=None):
        # as _logdet_dense; D + P and D^-1 for _SCHUR_POINTS points at a time, W and S per point
        out = []
        for lo in range(0, 1 if Ps is None else len(Ps), _SCHUR_POINTS):
            D = self.D[None] if Ps is None else self.D + Ps[lo:lo + _SCHUR_POINTS, ..., None]
            Dinv, logdet = _block_inverse(D)
            for i in np.flatnonzero(~np.isnan(logdet)):
                c, info = _POTRF(self._complement(Dinv[i])[1], lower=1, clean=0)
                logdet[i] += 2.0 * float(np.log(c.diagonal()).sum()) if info == 0 else np.nan
            out.append(logdet)
        return np.concatenate(out)

    def _solve_schur(self, g):
        Dinv, W, factor = self._schur()
        m, k = self.A.shape[0], self.D.shape[0]
        dg = np.einsum("jli,li->ji", Dinv, g[m:].reshape(k, self.layout.q))
        x_t = scipy.linalg.cho_solve(
            factor, g[:m] - np.einsum("jai,ji->a", self.B, dg), check_finite=False)
        x_v = dg - np.einsum("jai,a->ji", W, x_t)
        return np.concatenate([x_t, x_v.ravel()])

    def _inverse_blocks_schur(self):
        # (H^-1)_vv = D^-1 + W' S^-1 W, of which only the D_i-sized blocks are formed
        Dinv, W, factor = self._schur()
        cov_theta = scipy.linalg.cho_solve(factor, np.eye(self.A.shape[0]), check_finite=False)
        sw = np.einsum("ab,lbi->lai", cov_theta, W)
        return cov_theta, Dinv + np.einsum("jai,lai->jli", W, sw)

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
        self._sigma_cols = ([[s] for s in sig], [rho])
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
        if np.any(np.abs(lp_b) > LINPRED_MAX) or np.any(np.abs(lp_a) > LINPRED_MAX):
            raise DivergedIterateError("linear predictor overflow; damp the step")
        gamma = np.exp(lp_a)
        glogt = gamma * d.log_time
        if np.any(glogt > self._max_glogt):
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
        ell1_sum = float(np.sum(ell1))
        if not np.isfinite(ell1_sum):
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
        s_lam0 = s * lam0
        tau_Lam0 = tau * Lam0
        u_beta = delta - tau_Lam0
        u_alpha = delta + (delta * (1.0 + s * a) - tau * s_lam0) * glogt
        w_beta = tau_Lam0
        w_ba = tau * s_lam0 * glogt
        inner = delta * (s * (d2lam0 / lam0) + a - s * a * a) - tau * (lam0 + s * dlam0)
        w_alpha = -(delta * (1.0 + s * a) + glogt * s * inner - tau * s_lam0) * glogt
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
        if not np.all(np.isfinite(g)):
            raise EvaluationError("non-finite score entry")
        return g

    def information(self, x, penalty=True):
        H = self.data_part(x)[1]
        return H.with_penalty(_penalty_blocks(*self._sigma_cols)[0]) if penalty else H

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

        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))
                and np.all(np.isfinite(D))):
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
        return parts, g, H.with_penalty(_penalty_blocks(*self._sigma_cols)[0])


def logdet_pd(H, P=None):
    """log det of the positive-definite information, a :class:`Curvature`.

    With ``P`` the k x k frailty precision, or each of a stack of them,
    is added to every D_i first (see :meth:`Curvature.logdet`).  Raises
    :class:`CurvatureError` when the factorization fails, rather than
    silently taking absolute values of pivots; a stack marks such a point nan.
    """
    return H.logdet(P)

