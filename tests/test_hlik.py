import copy
import dataclasses
import math
import zlib

import numpy as np
import pytest
import scipy.linalg

from mprfrailty import (
    CurvatureError,
    Dataset,
    FrailtySpec,
    ScenarioSpec,
    build_design,
    fit,
    simulate_dataset,
)
from mprfrailty.data import combine
from mprfrailty.fitting import _newton
from mprfrailty.hlik import (
    DENSE_MAX_DIM,
    LOG_2PI,
    Curvature,
    Evaluator,
    ParamLayout,
    _ell2_total,
    _penalty_blocks,
    _penalty_score,
    logdet_pd,
)

from ._oracles import (
    bvn_logpdf,
    cond_loglik_scalar,
    fd_gradient,
    fd_jacobian,
    norm_logpdf,
    rel_err,
)
from .conftest import small_weibull_dataset, spec_for

STRUCTURES = ["NF", "ScF", "ShF", "IF", "CF", "BVNF"]
FAMILIES = ["weibull", "gompertz", "loglogistic"]


def cluster_design(q, time=1.0, status=1):
    """A design of q one-record clusters without covariates."""
    ds = Dataset([f"c{i}" for i in range(q)], np.full(q, time), np.full(q, status),
                 np.zeros((q, 0)), [])
    if q > 1:
        return build_design(ds)
    with pytest.warns(UserWarning, match="single cluster"):
        return build_design(ds)


def record_ell1(family, t, delta, tau, gamma):
    """ell1 of one record: h_parts on a one-record design, tau and gamma as intercepts."""
    ev = Evaluator(family, cluster_design(1, t, delta), FrailtySpec("NF"))
    return ev.h_parts(ev.layout.pack(math.log(tau), math.log(gamma))).ell1_sum


def frailty_ell2(spec, v_beta=None, v_alpha=None, q=None):
    """sum_i ell2_i: h_parts at the given frailties on a design of q clusters."""
    if q is None:
        q = len(v_beta if v_beta is not None else v_alpha)
    ev = Evaluator("weibull", cluster_design(q), spec)
    return ev.h_parts(ev.layout.pack(0.0, 0.0, v_beta, v_alpha)).ell2_sum


def score_of(ev):
    """x -> the analytic score of h at x."""
    return lambda x: ev.h_score_info(x)[1]


def packed(design, spec, beta, alpha, v_beta=None, v_alpha=None):
    """(Evaluator, x) for the given estimates."""
    ev = Evaluator("weibull", design, spec)
    return ev, ev.layout.pack(beta, alpha, v_beta, v_alpha)


class TestCondLoglik:
    def test_weibull_unit_event(self):
        assert record_ell1("weibull", 1.0, 1, 1.0, 1.0) == pytest.approx(-1.0)

    def test_weibull_censored(self):
        # censored record contributes -tau * t**gamma
        assert record_ell1("weibull", 0.5, 0, 2.0, 1.0) == pytest.approx(-1.0)

    def test_gompertz_against_oracle(self):
        got = record_ell1("gompertz", 0.7, 1, 1.3, 0.8)
        want = cond_loglik_scalar("gompertz", 0.7, 1, 1.3, 0.8)
        assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_vector_matches_scalar_oracle(self, family):
        rng = np.random.default_rng(3)
        t = rng.uniform(0.2, 3.0, 12)
        delta = rng.integers(0, 2, 12)
        tau = rng.uniform(0.5, 2.0, 12)
        gamma = rng.uniform(0.5, 1.5, 12)
        got = [record_ell1(family, t[i], int(delta[i]), tau[i], gamma[i]) for i in range(12)]
        want = [
            cond_loglik_scalar(family, t[i], int(delta[i]), tau[i], gamma[i])
            for i in range(12)
        ]
        assert got == pytest.approx(want, rel=1e-12)


class TestFrailtyLogdensity:
    def test_bvnf_standard_origin(self):
        spec = FrailtySpec("BVNF", sigma_beta=1.0, sigma_alpha=1.0, rho=0.0)
        got = frailty_ell2(spec, np.zeros(1), np.zeros(1))
        assert got == pytest.approx(-math.log(2 * math.pi))

    def test_scf_standard_origin(self):
        spec = FrailtySpec("ScF", sigma_beta=1.0)
        assert frailty_ell2(spec, np.zeros(1)) == pytest.approx(
            -0.5 * math.log(2 * math.pi)
        )

    def test_bvnf_against_oracle(self):
        spec = FrailtySpec("BVNF", sigma_beta=1.0, sigma_alpha=0.5, rho=-0.5)
        got = frailty_ell2(spec, np.array([0.3]), np.array([-0.2]))
        assert got == pytest.approx(bvn_logpdf(0.3, -0.2, 1.0, 0.5, -0.5), rel=1e-13)

    def test_sums_over_clusters(self):
        spec = FrailtySpec("IF", sigma_beta=0.8, sigma_alpha=0.6)
        vb = np.array([0.1, -0.4, 0.2])
        va = np.array([-0.3, 0.0, 0.5])
        got = frailty_ell2(spec, vb, va)
        want = sum(bvn_logpdf(vb[i], va[i], 0.8, 0.6, 0.0) for i in range(3))
        assert got == pytest.approx(want, rel=1e-13)

    def test_nf_is_zero(self):
        assert frailty_ell2(FrailtySpec("NF"), q=4) == 0.0

    def test_shf_against_oracle(self):
        spec = FrailtySpec("ShF", sigma_alpha=0.6)
        va = np.array([0.3, -0.7, 0.1])
        got = frailty_ell2(spec, None, va)
        want = sum(norm_logpdf(v, 0.6) for v in va)
        assert got == pytest.approx(want, rel=1e-13)

    def test_cf_against_oracle(self):
        # v_alpha = phi * v_beta carries no density of its own
        spec = FrailtySpec("CF", sigma_beta=0.8, phi=-1.7)
        vb = np.array([0.2, -0.5, 0.4, 0.0])
        got = frailty_ell2(spec, vb, np.array([9.0, 9.0, 9.0, 9.0]))
        want = sum(norm_logpdf(v, 0.8) for v in vb)
        assert got == pytest.approx(want, rel=1e-13)


class TestHLoglik:
    def test_nf_equals_plain_loglik(self, fixture_30x5):
        ds, design = fixture_30x5
        beta = np.array([0.2, -0.1, 0.1])
        alpha = np.array([0.1, 0.2, -0.1])
        ev, x = packed(design, FrailtySpec("NF"), beta, alpha)
        val = ev.h_parts(x)
        tau = np.exp(design.X_beta @ beta)
        gamma = np.exp(design.X_alpha @ alpha)
        want = sum(
            cond_loglik_scalar("weibull", float(ds.time[i]), int(ds.status[i]), tau[i], gamma[i])
            for i in range(ds.n)
        )
        assert val.ell2_sum == 0.0
        assert val.h == pytest.approx(want, rel=1e-13)

    def test_zero_frailty_constant(self, fixture_30x5):
        _, design = fixture_30x5
        spec = FrailtySpec("BVNF", sigma_beta=0.8, sigma_alpha=0.6, rho=-0.4)
        ev, x = packed(design, spec, np.zeros(3), np.zeros(3))
        val = ev.h_parts(x)
        const = -math.log(
            2 * math.pi * 0.8 * 0.6 * math.sqrt(1 - 0.4**2)
        )
        assert val.ell2_sum == pytest.approx(design.q * const, rel=1e-13)

    def test_parts_sum_invariant(self, fixture_30x5):
        _, design = fixture_30x5
        rng = np.random.default_rng(0)
        for structure in STRUCTURES:
            spec = spec_for(structure)
            ev, x = packed(
                design, spec,
                rng.uniform(-0.3, 0.3, 3), rng.uniform(-0.3, 0.3, 3),
                rng.uniform(-0.3, 0.3, design.q) if spec.law.present(0) else None,
                rng.uniform(-0.3, 0.3, design.q) if spec.law.present(1) else None,
            )
            val = ev.h_parts(x)
            assert val.h == pytest.approx(val.ell1_sum + val.ell2_sum, abs=1e-12)

    def test_matches_direct_summation_oracle(self, fixture_30x5):
        ds, design = fixture_30x5
        spec = FrailtySpec("BVNF", sigma_beta=0.9, sigma_alpha=0.5, rho=0.3)
        rng = np.random.default_rng(7)
        beta = rng.uniform(-0.3, 0.3, 3)
        alpha = rng.uniform(-0.3, 0.3, 3)
        vb = rng.uniform(-0.5, 0.5, design.q)
        va = rng.uniform(-0.5, 0.5, design.q)
        ev, x = packed(design, spec, beta, alpha, vb, va)
        val = ev.h_parts(x)
        total = 0.0
        for i in range(ds.n):
            k = design.cluster_index[i]
            tau = math.exp(design.X_beta[i] @ beta + vb[k])
            gam = math.exp(design.X_alpha[i] @ alpha + va[k])
            total += cond_loglik_scalar(
                "weibull", float(ds.time[i]), int(ds.status[i]), tau, gam
            )
        for k in range(design.q):
            total += bvn_logpdf(vb[k], va[k], 0.9, 0.5, 0.3)
        assert val.h == pytest.approx(total, rel=1e-12)


class TestScore:
    def test_single_record_trivial(self):
        ev, x = packed(cluster_design(1), FrailtySpec("NF"), np.zeros(1), np.zeros(1))
        g = ev.h_score_info(x)[1]
        assert g == pytest.approx([0.0, 1.0])

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_matches_finite_differences(self, fixture_30x5, family, structure):
        _, design = fixture_30x5
        spec = spec_for(structure)
        ev = Evaluator(family, design, spec)
        rng = np.random.default_rng(zlib.crc32(f"{family}/{structure}".encode()))
        for _ in range(5):
            x = rng.uniform(-0.4, 0.4, ev.layout.dim)
            assert rel_err(score_of(ev)(x), fd_gradient(ev.h, x)) < 1e-6

    def test_cf_chain_rule(self, fixture_30x5):
        # CF score block = Z'U_beta + phi Z'U_alpha - v_beta/sigma^2
        _, design = fixture_30x5
        spec = FrailtySpec("CF", sigma_beta=0.8, phi=1.7)
        ev = Evaluator("weibull", design, spec)
        rng = np.random.default_rng(5)
        x = rng.uniform(-0.3, 0.3, ev.layout.dim)
        assert rel_err(score_of(ev)(x), fd_gradient(ev.h, x)) < 1e-6


class TestInformation:
    def test_single_record_weights(self):
        ev, x = packed(cluster_design(1), FrailtySpec("NF"), np.zeros(1), np.zeros(1))
        H = ev.information(x).to_dense()
        # w_beta = 1; log t = 0 annihilates w_alpha and w_betaalpha
        assert H == pytest.approx(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_q_blocks_at_rho_zero(self, fixture_30x5):
        _, design = fixture_30x5
        spec = FrailtySpec("IF", sigma_beta=2.0, sigma_alpha=0.5)
        ev = Evaluator("weibull", design, spec)
        lay = ev.layout
        x = np.zeros(lay.dim)
        H_pen = ev.information(x).to_dense()
        H_raw = ev.information(x, penalty=False).to_dense()
        dq = H_pen - H_raw
        vb_block = dq[lay.block(0), lay.block(0)]
        va_block = dq[lay.block(1), lay.block(1)]
        cross = dq[lay.block(0), lay.block(1)]
        assert vb_block == pytest.approx(np.eye(design.q) / 4.0)
        assert va_block == pytest.approx(np.eye(design.q) * 4.0)
        assert cross == pytest.approx(np.zeros((design.q, design.q)))

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_matches_fd_of_score(self, fixture_30x5, family, structure):
        _, design = fixture_30x5
        spec = spec_for(structure)
        ev = Evaluator(family, design, spec)
        rng = np.random.default_rng(zlib.crc32(f"{structure}/{family}".encode()))
        for _ in range(3):
            x = rng.uniform(-0.4, 0.4, ev.layout.dim)
            H = ev.information(x).to_dense()
            H_fd = -fd_jacobian(score_of(ev), x)
            assert rel_err(H, H_fd) < 1e-5

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_data_part_is_ell1_and_penalty_free_information(self, fixture_30x5, structure,
                                                            family):
        _, design = fixture_30x5
        ev = Evaluator(family, design, spec_for(structure))
        x = np.random.default_rng(3).uniform(-0.4, 0.4, ev.layout.dim)
        ell1_sum, H = ev.data_part(x)
        want = ev.information(x, penalty=False)
        assert ell1_sum == ev.h_parts(x).ell1_sum
        for got, ref in ((H.A, want.A), (H.B, want.B), (H.D, want.D), (H.P, want.P)):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_symmetry(self, fixture_30x5, structure):
        _, design = fixture_30x5
        spec = spec_for(structure)
        ev = Evaluator("gompertz", design, spec)
        x = np.random.default_rng(1).uniform(-0.3, 0.3, ev.layout.dim)
        H = ev.information(x).to_dense()
        assert np.max(np.abs(H - H.T)) < 1e-10


def _v_slice(lay, r):
    """Slice of the frailty block of component r (0: v_beta, 1: v_alpha), if free."""
    return lay.block(lay.free.index(r)) if r in lay.free else None


class TestStructureNesting:
    def test_bvnf_rho_zero_equals_if(self, fixture_30x5):
        _, design = fixture_30x5
        bvnf = FrailtySpec("BVNF", sigma_beta=0.8, sigma_alpha=0.6, rho=0.0)
        ifs = FrailtySpec("IF", sigma_beta=0.8, sigma_alpha=0.6)
        rng = np.random.default_rng(4)
        beta = rng.uniform(-0.3, 0.3, 3)
        alpha = rng.uniform(-0.3, 0.3, 3)
        vb = rng.uniform(-0.4, 0.4, design.q)
        va = rng.uniform(-0.4, 0.4, design.q)
        ev_b, xb = packed(design, bvnf, beta, alpha, vb, va)
        ev_i, xi = packed(design, ifs, beta, alpha, vb, va)
        hb, gb, Hb = ev_b.h_score_info(xb)
        hi, gi, Hi = ev_i.h_score_info(xi)
        assert hb.h == pytest.approx(hi.h, abs=1e-12)
        assert gb == pytest.approx(gi, abs=1e-12)
        assert np.max(np.abs(Hb.to_dense() - Hi.to_dense())) < 1e-12

    def test_bvnf_vanishing_shape_approaches_scf(self, fixture_30x5):
        # at v_alpha = 0, h differs from ScF only by the sigma_alpha constant
        _, design = fixture_30x5
        eps = 1e-4
        bvnf = FrailtySpec("BVNF", sigma_beta=0.8, sigma_alpha=eps, rho=0.0)
        scf = FrailtySpec("ScF", sigma_beta=0.8)
        rng = np.random.default_rng(8)
        beta = rng.uniform(-0.3, 0.3, 3)
        alpha = rng.uniform(-0.3, 0.3, 3)
        vb = rng.uniform(-0.4, 0.4, design.q)
        ev_b, xb = packed(design, bvnf, beta, alpha, vb, np.zeros(design.q))
        ev_s, xs = packed(design, scf, beta, alpha, vb)
        const = design.q * (-0.5 * math.log(2 * math.pi) - math.log(eps))
        assert ev_b.h(xb) - ev_s.h(xs) == pytest.approx(const, rel=1e-10)


class TestAdjustedProfile:
    def test_nf_definition(self):
        # a fit's deviance is -2 p with p = h - 0.5 log det(H / 2 pi) at its estimates
        ds = small_weibull_dataset()
        f = fit(ds, structure="NF")
        ev, x = packed(build_design(ds), f.spec, f.beta, f.alpha)
        sign, logdet = np.linalg.slogdet(ev.information(x).to_dense() / (2 * math.pi))
        assert sign > 0
        assert -0.5 * f.deviance_profile == pytest.approx(ev.h(x) - 0.5 * logdet, rel=1e-12)


# -- bordered block-diagonal curvature -------------------------------------------


def _penalty_scalars(spec):
    """(q_bb, q_aa, q_ba): the frailty precision entries, from the bivariate normal."""
    st = spec.structure
    if st in ("ScF", "CF"):
        return 1.0 / spec.sigma_beta**2, 0.0, 0.0
    if st == "ShF":
        return 0.0, 1.0 / spec.sigma_alpha**2, 0.0
    if st in ("IF", "BVNF"):
        sb, sa = spec.sigma_beta, spec.sigma_alpha
        rho = 0.0 if st == "IF" else spec.rho
        c = 1.0 / (1.0 - rho * rho)
        return c / sb**2, c / sa**2, -c * rho / (sb * sa)
    return 0.0, 0.0, 0.0


def dense_information(ev, x, penalty):
    """The (theta, v) information written entry by entry into a dense matrix."""
    tau, _, s, glogt, _ = ev._predictors(x)
    _, _, w_beta, w_alpha, w_ba = ev._record_terms(tau, s, glogt, ev._base.cumhaz(s))
    d, lay, spec = ev.design, ev.layout, ev.spec
    sl_vb, sl_va = _v_slice(lay, 0), _v_slice(lay, 1)
    Xb, Xa, idx, q = d.X_beta, d.X_alpha, d.cluster_index, d.q

    def csum(w):
        return np.bincount(idx, weights=w, minlength=q)

    def csum_cols(w, X):
        return np.array([csum(w * X[:, j]) for j in range(X.shape[1])])

    H = np.zeros((lay.dim, lay.dim))
    H[lay.sl_beta, lay.sl_beta] = (Xb * w_beta[:, None]).T @ Xb
    H[lay.sl_beta, lay.sl_alpha] = (Xb * w_ba[:, None]).T @ Xa
    H[lay.sl_alpha, lay.sl_beta] = H[lay.sl_beta, lay.sl_alpha].T
    H[lay.sl_alpha, lay.sl_alpha] = (Xa * w_alpha[:, None]).T @ Xa
    q_bb, q_aa, q_ba = _penalty_scalars(spec) if penalty else (0.0, 0.0, 0.0)
    qr = np.arange(q)
    if spec.structure == "CF":
        phi = spec.phi
        cols = {"beta": (csum_cols(w_beta, Xb) + phi * csum_cols(w_ba, Xb), lay.sl_beta),
                "alpha": (csum_cols(w_ba, Xa) + phi * csum_cols(w_alpha, Xa), lay.sl_alpha)}
        blocks = [(sl_vb, cols, csum(w_beta) + 2.0 * phi * csum(w_ba)
                   + phi * phi * csum(w_alpha) + q_bb)]
    else:
        blocks = []
        if sl_vb is not None:
            blocks.append((sl_vb, {"beta": (csum_cols(w_beta, Xb), lay.sl_beta),
                                       "alpha": (csum_cols(w_ba, Xa), lay.sl_alpha)},
                           csum(w_beta) + q_bb))
        if sl_va is not None:
            blocks.append((sl_va, {"beta": (csum_cols(w_ba, Xb), lay.sl_beta),
                                       "alpha": (csum_cols(w_alpha, Xa), lay.sl_alpha)},
                           csum(w_alpha) + q_aa))
        if sl_vb is not None and sl_va is not None:
            H[sl_vb, sl_va][qr, qr] = csum(w_ba) + q_ba
            H[sl_va, sl_vb][qr, qr] = csum(w_ba) + q_ba
    for sl_v, cols, diag in blocks:
        for border, sl_t in cols.values():
            H[sl_t, sl_v] = border
            H[sl_v, sl_t] = border.T
        H[sl_v, sl_v][qr, qr] = diag
    return H


@pytest.fixture(scope="module", params=[10, 150], ids=["q10", "q150"])
def block_design(request):
    sc = ScenarioSpec(q=request.param, n_i=5, beta_true=(1.0, -0.5, 0.5),
                      alpha_true=(0.5, 0.5, -0.5), sigma_beta=1.0, sigma_alpha=0.5,
                      rho=-0.5, censor_rate=0.25, seed=request.param)
    ds = simulate_dataset(sc, 2.0, np.random.default_rng(request.param))
    return build_design(ds)


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


def _no_penalty(H):
    """A one-row stack of zero frailty precisions: its log-det is that of H itself."""
    return np.zeros((1, H.layout.k, H.layout.k))


def _dense_ridge_solve(Hd, g):
    """Ridge-escalating dense Cholesky solve: (direction, ridge)."""
    diag = np.abs(np.diag(Hd))
    scale = np.where(diag > 0, diag, 1.0)
    for lam in (0.0, 1e-8, 1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4):
        try:
            factor = scipy.linalg.cho_factor(Hd + np.diag(lam * scale), lower=True)
        except scipy.linalg.LinAlgError:
            continue
        return scipy.linalg.cho_solve(factor, g), lam
    raise AssertionError("no ridge repaired the matrix")


class TestCurvature:
    @pytest.mark.parametrize("penalty", [True, False])
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_to_dense_equals_dense_assembly(self, fixture_30x5, structure, family, penalty):
        _, design = fixture_30x5
        ev = Evaluator(family, design, spec_for(structure))
        x = np.random.default_rng(2).uniform(-0.4, 0.4, ev.layout.dim)
        got = ev.information(x, penalty=penalty).to_dense()
        assert (got == dense_information(ev, x, penalty)).all()

    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_schur_matches_dense_lapack(self, block_design, structure):
        ev = Evaluator("gompertz", block_design, spec_for(structure))
        rng = np.random.default_rng(6)
        x = rng.uniform(-0.3, 0.3, ev.layout.dim)
        H = ev.information(x)
        Hd = H.to_dense()
        m = ev.layout.m_beta + ev.layout.m_alpha
        # q10 and NF (k = 0) put the log-det and solve on the dense side of DENSE_MAX_DIM,
        # q150 with a frailty on the Schur side; the inverse blocks take the Schur path at all
        assert (ev.layout.dim <= DENSE_MAX_DIM) == (block_design.q == 10 or structure == "NF")
        Hinv = np.linalg.inv(Hd)
        H_star = ev.information(x, penalty=False).to_dense()
        g = rng.standard_normal(ev.layout.dim)

        logdet = 2.0 * np.sum(np.log(np.diag(scipy.linalg.cholesky(Hd))))
        none = _no_penalty(H)
        for got in (H.logdet(none)[0], H._logdet_schur(none)[0], logdet_pd(H, none)[0]):
            assert _rel(got, logdet) < 1e-10
        direction = scipy.linalg.solve(Hd, g, assume_a="pos")
        for got in (H.solve(g), H._solve_schur(g)):
            assert rel_err(got, direction) < 1e-10
        d, ridge = H.solve_ascent(g)
        assert ridge == 0.0 and rel_err(d, direction) < 1e-10
        df_c = np.trace(Hinv @ H_star)
        cov_theta, blocks = H.inverse_blocks()
        assert rel_err(cov_theta, Hinv[:m, :m]) < 1e-10
        if len(blocks):
            se_v = np.sqrt([blocks[j, j] for j in range(len(blocks))]).ravel()
            assert rel_err(se_v, np.sqrt(np.diag(Hinv)[m:])) < 1e-10
        assert _rel(H.df_c(blocks), df_c) < 1e-10

    @pytest.mark.parametrize("structure", ["ScF", "CF", "BVNF"])
    def test_ridge_repairs_indefinite_schur_complement(self, block_design, structure):
        ev = Evaluator("weibull", block_design, spec_for(structure))
        rng = np.random.default_rng(7)
        H = ev.information(rng.uniform(-0.3, 0.3, ev.layout.dim))
        S_min = np.linalg.eigvalsh(np.linalg.inv(np.linalg.inv(H.to_dense())[:6, :6]))[0]
        bad = Curvature(H.layout, H.A - 2.0 * S_min * np.eye(6), H.B, H.D, H.P)
        g = rng.standard_normal(ev.layout.dim)
        want, want_ridge = _dense_ridge_solve(bad.to_dense(), g)
        d, ridge = bad.solve_ascent(g)
        assert ridge == want_ridge > 0.0
        assert rel_err(d, want) < 1e-10
        assert np.isnan(bad._logdet_schur(_no_penalty(bad))[0])
        assert np.isnan(bad.logdet(_no_penalty(bad))[0])

    def test_frailty_block_with_negative_determinant_raises(self, block_design):
        ev = Evaluator("weibull", block_design, spec_for("BVNF"))
        H = ev.information(np.zeros(ev.layout.dim))
        D = H.D.copy()
        D[0, 1, 3] = D[1, 0, 3] = 1.5 * np.sqrt(D[0, 0, 3] * D[1, 1, 3])
        bad = Curvature(H.layout, H.A, H.B, D, H.P)
        assert np.isnan(bad._logdet_schur(_no_penalty(bad))[0])
        assert np.isnan(bad.logdet(_no_penalty(bad))[0])
        with pytest.raises(CurvatureError):
            bad.inverse_blocks()
        with pytest.raises(CurvatureError):
            bad._solve_schur(np.ones(ev.layout.dim))


# -- the batched and scattered forms against their one-at-a-time references ----


def _blockwise_dense(H):
    """H written block by block: A, then each B[j] and its transpose, then every D_i entry."""
    lay = H.layout
    out = np.zeros((lay.dim, lay.dim))
    out[:lay.m, :lay.m] = H.A
    cells = np.arange(lay.q)
    for j in range(lay.k):
        out[:lay.m, lay.block(j)] = H.B[j]
        out[lay.block(j), :lay.m] = H.B[j].T
        for l in range(lay.k):
            out[lay.block(j), lay.block(l)][cells, cells] = H.D[j, l]
    return out


def _dispersion_stack(k, npts, seed):
    """(sig, rho): k x npts standard deviations over six decades and correlations near +-1."""
    rng = np.random.default_rng(seed)
    sig = np.exp(rng.uniform(-7.0, 7.0, (k, npts)))
    rho = np.tanh(rng.uniform(-6.0, 6.0, npts)) if k == 2 else np.zeros(npts)
    return sig, rho


class TestSameBits:
    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_to_dense_equals_blockwise_fill(self, fixture_30x5, structure):
        _, design = fixture_30x5
        ev = Evaluator("gompertz", design, spec_for(structure))
        H = ev.information(np.random.default_rng(3).uniform(-0.4, 0.4, ev.layout.dim))
        # A copied as it is, not symmetrized: LAPACK reads its lower triangle
        lopsided = Curvature(H.layout, H.A + np.triu(np.ones_like(H.A), 1), H.B, H.D, H.P)
        for curv in (H, lopsided):
            assert np.array_equal(curv.to_dense(), _blockwise_dense(curv))

    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_stacked_log_det_equals_one_point_log_det(self, block_design, structure):
        # q10 (and NF, k = 0) factors densely, q150 through the Schur complement
        ev = Evaluator("weibull", block_design, spec_for(structure))
        H = ev.information(np.random.default_rng(4).uniform(-0.3, 0.3, ev.layout.dim),
                           penalty=False)
        assert (H.dim <= DENSE_MAX_DIM) == (block_design.q == 10 or structure == "NF")
        sig, rho = _dispersion_stack(H.layout.k, 9, seed=block_design.q)
        # the last precision leaves every D_i + P indefinite, where there is a D_i
        Ps = np.concatenate([_penalty_blocks(sig, rho), -1e3 * np.eye(H.layout.k)[None]])
        got = H.logdet(Ps)
        assert np.isnan(got[-1]) == (structure != "NF") and not np.isnan(got).all()
        for j, P in enumerate(Ps):
            # row j alone, and with P[j] added to the curvature before a zero precision
            for one in (H.logdet(Ps[j:j + 1]), H.with_penalty(P).logdet(_no_penalty(H))):
                assert np.array_equal(one, got[j:j + 1], equal_nan=True)
        # a stack where every point is positive definite
        pd = ~np.isnan(got)
        assert np.array_equal(H.logdet(Ps[pd]), got[pd])

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_stacked_closed_forms_equal_one_point_calls(self, k):
        sig, rho = _dispersion_stack(k, 11, seed=k)
        u = np.random.default_rng(10 + k).standard_normal((k, 7))
        ell2, P = _ell2_total(sig, rho, 7, u), _penalty_blocks(sig, rho)
        assert len(ell2) == len(P) == 11
        for i in range(11):
            one = (sig[:, i:i + 1], rho[i:i + 1])
            assert _ell2_total(*one, 7, u) == [ell2[i]]
            assert np.array_equal(_penalty_blocks(*one), P[i:i + 1])

    @pytest.mark.parametrize("k", [1, 2])
    def test_closed_forms_keep_scalar_logs_and_squares(self, k):
        # each point against the scalar formulas; numpy's square differs from
        # Python's float power on about 0.1% of these inputs, so 20,000 points
        # catch a switch to it
        sig, rho = _dispersion_stack(k, 20_000, seed=20 + k)
        u = np.random.default_rng(30 + k).standard_normal((k, 7))
        ell2, P = _ell2_total(sig, rho, 7, u), _penalty_blocks(sig, rho)
        for i, (s, r) in enumerate(zip(sig.T.tolist(), rho.tolist())):
            if k == 1:
                half = 0.5 * float(np.sum(u[0]**2))
                want = -7 * (0.5 * LOG_2PI + math.log(s[0])) - half / s[0]**2
                want_P = [[1.0 / s[0]**2]]
            else:
                sb, sa = s
                omr = 1.0 - r * r
                ub, ua = u[0] / sb, u[1] / sa
                quad = float((ub**2 + ua**2 - 2.0 * r * ub * ua).sum())
                want = (-7 * (LOG_2PI + math.log(sb) + math.log(sa) + 0.5 * math.log(omr))
                        - 0.5 * quad / omr)
                c = 1.0 / omr
                cross = -c * r / (sb * sa)
                want_P = [[c / sb**2, cross], [cross, c / sa**2]]
            assert ell2[i] == want
            assert P[i].tolist() == want_P

    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_dense_solve_equals_cho_solve(self, fixture_30x5, structure):
        _, design = fixture_30x5
        ev = Evaluator("loglogistic", design, spec_for(structure))
        rng = np.random.default_rng(5)
        n_pd = 0
        for x in (np.zeros(ev.layout.dim), rng.uniform(-0.3, 0.3, ev.layout.dim)):
            H = ev.information(x)
            g = rng.standard_normal(H.dim)
            try:
                factor = scipy.linalg.cho_factor(H.to_dense(), lower=True)
            except scipy.linalg.LinAlgError:
                with pytest.raises(CurvatureError):
                    H._solve_dense(g)
                continue
            n_pd += 1
            want = scipy.linalg.cho_solve(factor, g)
            assert np.array_equal(H._solve_dense(g), want)
            assert H.solve_ascent(g)[1] == 0.0
            assert np.array_equal(H.solve_ascent(g)[0], want)
        assert n_pd


# -- cluster sums and the kept trial pass ---------------------------------------


@pytest.fixture(scope="module")
def interleaved_design():
    """Clusters of sizes 1 to 12, interleaved in an unsorted record order.

    First appearance differs from label order, and the scale and shape
    components use different covariates (m_beta = 3, m_alpha = 2).
    """
    rng = np.random.default_rng(11)
    sizes = {"k": 1, "c": 2, "a": 3, "f": 7, "b": 12, "z": 5}
    clusters = rng.permutation([lab for lab, size in sizes.items() for _ in range(size)])
    n = len(clusters)
    ds = Dataset(clusters, rng.uniform(0.2, 3.0, n), rng.integers(0, 2, n),
                 rng.standard_normal((n, 3)), ["x1", "x2", "x3"])
    return build_design(ds, scale_covariates=["x3", "x1"], shape_covariates=["x2"])


def wide_weights(n, seed):
    """Record weights spanning 16 orders of magnitude: a sum's bits depend on its order."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)


def sequential_sums(design, X, w):
    """(m, q) sums of X[j, a] * w[j] over each cluster, added one record at a time from 0.0."""
    out = np.zeros((X.shape[1], design.q))
    for j, i in enumerate(design.cluster_index):
        for a in range(X.shape[1]):
            out[a, i] += X[j, a] * w[j]
    return out


def bincount_sums(design, X, w):
    """The same sums as one np.bincount over (cluster, column) bins."""
    q, m = design.q, X.shape[1]
    bins = (design.cluster_index[:, None] * m + np.arange(m)).ravel()
    return np.bincount(bins, weights=(w[:, None] * X).ravel(), minlength=q * m).reshape(q, m).T


def reversed_within_clusters(M):
    """A copy of the CSR matrix M that adds each cluster's records in reverse order."""
    data, indices = M.data.copy(), M.indices.copy()
    for r in range(M.shape[0]):
        row = slice(M.indptr[r], M.indptr[r + 1])
        data[row], indices[row] = data[row][::-1], indices[row][::-1]
    return type(M)((data, indices, M.indptr.copy()), shape=M.shape)


def bincount_score(ev, x):
    """The score with the frailty blocks' cluster sums taken by np.bincount."""
    tau, _, s, glogt, u = ev._predictors(x)
    u_beta, u_alpha, *_ = ev._record_terms(tau, s, glogt, ev._base.cumhaz(s))
    d, lay = ev.design, ev.layout
    g = np.empty(lay.dim)
    g[lay.sl_beta] = d.X_beta.T @ u_beta
    g[lay.sl_alpha] = d.X_alpha.T @ u_alpha
    U = [np.bincount(d.cluster_index, weights=w, minlength=d.q) for w in (u_beta, u_alpha)]
    pen = _penalty_score(*ev._sigma, u)
    for j, col in enumerate(ev._cols):
        g[lay.block(j)] = combine(col, U.__getitem__) - pen[j]
    return g


class TestClusterSums:
    def test_equal_to_sequential_and_bincount_sums(self, interleaved_design):
        d = interleaved_design
        Z, S_beta, S_alpha = d.cluster_sums
        ones = np.ones((d.n, 1))
        for seed in range(3):
            w = wide_weights(d.n, seed)
            for M, X in ((Z, ones), (S_beta, d.X_beta), (S_alpha, d.X_alpha)):
                got = (M @ w).reshape(X.shape[1], d.q)
                assert np.array_equal(got, sequential_sums(d, X, w))
                assert np.array_equal(got, bincount_sums(d, X, w))
            assert np.array_equal(Z @ w, np.bincount(d.cluster_index, weights=w, minlength=d.q))

    def test_oracle_rejects_another_order_within_a_cluster(self, interleaved_design):
        d = interleaved_design
        S_beta = d.cluster_sums[1]
        w = wide_weights(d.n, 0)
        got = (reversed_within_clusters(S_beta) @ w).reshape(d.m_beta, d.q)
        want = sequential_sums(d, d.X_beta, w)
        assert np.allclose(got, want, rtol=1e-6, atol=1e-6 * np.abs(w).max())
        assert not np.array_equal(got, want)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_passes_equal_bincount_assembly(self, interleaved_design, structure, family):
        ev = Evaluator(family, interleaved_design, spec_for(structure))
        x = np.random.default_rng(5).uniform(-0.4, 0.4, ev.layout.dim)
        ell1_sum, H0 = ev.data_part(x)
        assert ell1_sum == ev.h_parts(x).ell1_sum
        assert np.array_equal(H0.to_dense(), dense_information(ev, x, penalty=False))
        _, g, H = ev.h_score_info(x)
        assert np.array_equal(g, bincount_score(ev, x))
        assert np.array_equal(H.to_dense(), dense_information(ev, x, penalty=True))


def _same_pass(a, b):
    (pa, ga, Ha), (pb, gb, Hb) = a, b
    return (pa == pb and np.array_equal(ga, gb)
            and all(np.array_equal(u, v) for u, v in ((Ha.A, Hb.A), (Ha.B, Hb.B), (Ha.D, Hb.D))))


class TestKeptTrial:
    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_h_then_h_score_info_reuses_the_pass(self, fixture_30x5, structure, monkeypatch):
        _, design = fixture_30x5
        spec = spec_for(structure)
        ev = Evaluator("gompertz", design, spec)
        x = np.random.default_rng(4).uniform(-0.4, 0.4, ev.layout.dim)
        ev.h(x)
        calls = []
        predictors = ev._predictors
        monkeypatch.setattr(ev, "_predictors", lambda y: calls.append(1) or predictors(y))
        got = ev.h_score_info(x.copy())
        assert calls == []
        assert _same_pass(got, Evaluator("gompertz", design, spec).h_score_info(x))

    def test_other_x_is_evaluated_afresh(self, fixture_30x5):
        _, design = fixture_30x5
        spec = spec_for("BVNF")
        ev, fresh = Evaluator("weibull", design, spec), Evaluator("weibull", design, spec)
        x1 = np.random.default_rng(6).uniform(-0.4, 0.4, ev.layout.dim)
        x2 = x1.copy()
        x2[-1] += 2.0**-40
        ev.h(x1)
        assert _same_pass(ev.h_score_info(x2), fresh.h_score_info(x2))
        assert not _same_pass(fresh.h_score_info(x2), fresh.h_score_info(x1))
        # an x changed in place after h is not the x h saw
        x = x1.copy()
        ev.h(x)
        x[0] += 0.25
        assert _same_pass(ev.h_score_info(x), fresh.h_score_info(x))

    def test_newton_evaluates_each_accepted_step_once(self, fixture_30x5, monkeypatch):
        _, design = fixture_30x5
        ev = Evaluator("weibull", design, spec_for("BVNF"))
        counts = {"predictors": 0, "h": 0}
        predictors, h = ev._predictors, ev.h

        def count(name, f):
            def counted(x):
                counts[name] += 1
                return f(x)
            return counted

        monkeypatch.setattr(ev, "_predictors", count("predictors", predictors))
        monkeypatch.setattr(ev, "h", count("h", h))
        res = _newton(ev, np.zeros(ev.layout.dim))
        assert res.iterations > 2 and res.monotone
        # one pass for the start, one per trial step, none for an accepted step
        assert counts["predictors"] == counts["h"] + 1


def _own_design(design):
    """A copy of design with an empty kept pass, so that evaluations on it are fresh."""
    own = copy.copy(design)
    own.kept_pass = None
    return own


def _same_info(a, b):
    (pa, ga, Ha), (pb, gb, Hb) = a, b
    return _same_pass(a, b) and np.array_equal(Ha.P, Hb.P)


def _count_calls(monkeypatch, name):
    """Count the calls of the Evaluator method ``name`` on every evaluator."""
    calls = []
    method = getattr(Evaluator, name)
    monkeypatch.setattr(Evaluator, name, lambda self, *a: calls.append(1) or method(self, *a))
    return calls


def _other_sigmas(spec):
    return dataclasses.replace(spec, **{n: 1.5 * v for n, v in spec.dispersion().items()
                                        if n.startswith("sigma")})


class TestKeptPass:
    @pytest.mark.parametrize("structure", STRUCTURES[1:])
    def test_serves_another_sigma_at_the_same_x(self, fixture_30x5, structure, monkeypatch):
        design = _own_design(fixture_30x5[1])
        spec = spec_for(structure)
        x = np.random.default_rng(8).uniform(-0.4, 0.4, ParamLayout.for_spec(design, spec).dim)
        Evaluator("gompertz", design, spec).h_score_info(x)
        record_terms = _count_calls(monkeypatch, "_record_terms")
        other = _other_sigmas(spec)
        got = Evaluator("gompertz", design, other).h_score_info(x.copy())
        ell1_sum, H = Evaluator("gompertz", design, other).data_part(x)
        assert record_terms == []
        want = Evaluator("gompertz", _own_design(design), other).h_score_info(x)
        assert _same_info(got, want)
        assert ell1_sum == want[0].ell1_sum
        assert np.array_equal(H.with_penalty(want[2].P).D, want[2].D)

    @pytest.mark.parametrize("other", [("gompertz", spec_for("BVNF")),
                                       ("weibull", FrailtySpec("CF", sigma_beta=0.8, phi=0.7)),
                                       ("weibull", FrailtySpec("NF"))])
    def test_other_family_or_loading_is_evaluated_afresh(self, fixture_30x5, other,
                                                         monkeypatch):
        design = _own_design(fixture_30x5[1])
        family, spec = other
        # kept: the same structure at the other family, CF at another phi, or a
        # structure whose loading differs from NF's (the fit's Weibull initializer)
        kept_spec = {"BVNF": spec, "CF": spec_for("CF"), "NF": spec_for("ScF")}[spec.structure]
        kept_layout = ParamLayout.for_spec(design, kept_spec)
        x_kept = np.random.default_rng(9).uniform(-0.4, 0.4, kept_layout.dim)
        Evaluator("weibull", design, kept_spec).h_score_info(x_kept)
        x = x_kept[:ParamLayout.for_spec(design, spec).dim]
        record_terms = _count_calls(monkeypatch, "_record_terms")
        got = Evaluator(family, design, spec).h_score_info(x)
        assert record_terms == [1]
        assert _same_info(got, Evaluator(family, _own_design(design), spec).h_score_info(x))

    def test_other_x_is_evaluated_afresh(self, fixture_30x5, monkeypatch):
        design = _own_design(fixture_30x5[1])
        spec = spec_for("BVNF")
        x = np.random.default_rng(10).uniform(-0.4, 0.4, ParamLayout.for_spec(design, spec).dim)
        Evaluator("weibull", design, spec).h_score_info(x)
        record_terms = _count_calls(monkeypatch, "_record_terms")
        x2 = x.copy()
        x2[-1] += 2.0**-40
        got = Evaluator("weibull", design, spec).h_score_info(x2)
        assert record_terms == [1]
        assert _same_info(got, Evaluator("weibull", _own_design(design), spec).h_score_info(x2))
        # the kept x is a copy: an x changed in place is not the x of the pass
        Evaluator("weibull", design, spec).h_score_info(x)
        x[0] += 0.25
        del record_terms[:]
        got = Evaluator("weibull", design, spec).h_score_info(x)
        assert record_terms == [1]
        assert _same_info(got, Evaluator("weibull", _own_design(design), spec).h_score_info(x))

    def test_data_part_does_not_build_the_score(self, fixture_30x5, monkeypatch):
        design = _own_design(fixture_30x5[1])
        ev = Evaluator("weibull", design, spec_for("IF"))
        x = np.random.default_rng(11).uniform(-0.4, 0.4, ev.layout.dim)
        score = _count_calls(monkeypatch, "_assemble_score")
        ev.data_part(x)
        assert score == []
        ev.h_score_info(x)
        assert score == [1]


class TestKeptValue:
    @pytest.mark.parametrize("structure", STRUCTURES[1:])
    def test_h_of_another_sigma_is_not_reused(self, fixture_30x5, structure):
        design = _own_design(fixture_30x5[1])
        spec = spec_for(structure)
        x = np.random.default_rng(12).uniform(-0.4, 0.4, ParamLayout.for_spec(design, spec).dim)
        Evaluator("gompertz", design, spec).h(x)
        other = _other_sigmas(spec)
        got = Evaluator("gompertz", design, other).h_score_info(x)
        want = Evaluator("gompertz", _own_design(design), other).h_score_info(x)
        assert got[0] == want[0]
        assert _same_info(got, want)
