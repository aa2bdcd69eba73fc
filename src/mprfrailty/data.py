"""Clustered survival data, frailty structures and design matrices.

The model has two regression components: the scale parameter tau and the
shape parameter gamma of the baseline hazard, each with its own linear
predictor on the log scale,

    log tau_ij   = x_ij' beta  + v_beta_i
    log gamma_ij = x_ij' alpha + v_alpha_i,

where i indexes clusters and j individuals within clusters.  The
cluster-level random effects (v_beta_i, v_alpha_i) follow one of six
structures selected by :class:`FrailtySpec`.
"""

import csv
import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse

from .errors import DataError, DomainError

# Frailty structures: none, scale-only, shape-only, independent pair,
# common (shape proportional to scale), bivariate normal pair.
NF = "NF"
SCF = "ScF"
SHF = "ShF"
IF = "IF"
CF = "CF"
BVNF = "BVNF"

STRUCTURES = (NF, SCF, SHF, IF, CF, BVNF)

# |rho| is capped here so the correlated-frailty likelihood stays evaluable
# while the common-frailty (CF) structure covers the exact boundary.
RHO_CAP = 1.0 - 1e-6


@dataclass(frozen=True)
class FrailtyLaw:
    """One structure's frailty law: v_i = L u_i with u_i ~ N(0, Sigma).

    v_i = (v_beta_i, v_alpha_i) is cluster i's frailty pair and u_i its k
    free components (k <= 2).  ``loading`` is L by rows (v_beta, v_alpha),
    one entry per component: a constant, or the name of the dispersion
    parameter it equals.  ``sigmas`` names the standard deviation of each
    component and ``rho`` their correlation (None: 0).  Every column of L
    holds a 1, so component j is the frailty ``free[j]`` (0: v_beta,
    1: v_alpha), and every row at most one non-zero entry.
    """

    loading: tuple
    sigmas: tuple
    rho: str | None = None

    @cached_property
    def k(self):
        return len(self.sigmas)

    @cached_property
    def loading_names(self):
        """Dispersion parameters L depends on."""
        return tuple(e for row in self.loading for e in row if isinstance(e, str))

    @cached_property
    def names(self):
        """The dispersion parameters, in their conventional order."""
        return self.sigmas + ((self.rho,) if self.rho else ()) + self.loading_names

    @cached_property
    def free(self):
        """The frailty (0: v_beta, 1: v_alpha) each component equals."""
        return tuple(next(r for r in (0, 1) if self.loading[r][j] == 1.0)
                     for j in range(self.k))

    def present(self, r):
        """True when frailty r (0: v_beta, 1: v_alpha) is not structurally zero."""
        return any(e != 0.0 for e in self.loading[r])

    def sigma(self, disp):
        """Sigma as (standard deviations of the components, their correlation).

        ``disp`` maps the dispersion names to their values, as
        ``ModelFit.dispersion`` does.
        """
        return [disp[n] for n in self.sigmas], (disp[self.rho] if self.rho else 0.0)

    def loading_at(self, disp):
        """L with its named entries looked up in the name -> value mapping ``disp``."""
        return tuple(tuple(disp[e] if isinstance(e, str) else e for e in row)
                     for row in self.loading)


FRAILTY_LAWS = {
    NF: FrailtyLaw(loading=((), ()), sigmas=()),
    SCF: FrailtyLaw(loading=((1.0,), (0.0,)), sigmas=("sigma_beta",)),
    SHF: FrailtyLaw(loading=((0.0,), (1.0,)), sigmas=("sigma_alpha",)),
    IF: FrailtyLaw(loading=((1.0, 0.0), (0.0, 1.0)), sigmas=("sigma_beta", "sigma_alpha")),
    CF: FrailtyLaw(loading=((1.0,), ("phi",)), sigmas=("sigma_beta",)),
    BVNF: FrailtyLaw(loading=((1.0, 0.0), (0.0, 1.0)),
                     sigmas=("sigma_beta", "sigma_alpha"), rho="rho"),
}


@dataclass(frozen=True)
class Transform:
    """A dispersion parameter's map to the unconstrained search scale z."""

    to_z: object      # natural value -> z
    from_z: object    # z -> natural value, capped at the boundaries
    jacobian: object  # d(natural)/dz at a natural value


_SIGMA = Transform(
    to_z=math.log,
    from_z=lambda z: max(float(np.exp(min(z, 50.0))), 1e-12),
    jacobian=lambda v: v,
)

TRANSFORMS = {
    "sigma_beta": _SIGMA,
    "sigma_alpha": _SIGMA,
    "rho": Transform(
        to_z=lambda v: math.atanh(min(max(v, -RHO_CAP), RHO_CAP)),
        from_z=lambda z: min(max(float(np.tanh(z)), -RHO_CAP), RHO_CAP),
        jacobian=lambda v: 1.0 - v**2,
    ),
    "phi": Transform(to_z=lambda v: v, from_z=float, jacobian=lambda v: 1.0),
}


def combine(weights, term):
    """sum_j weights[j] * term(j); None when every weight is zero.

    Zero weights are skipped and unit ones not multiplied, so applying
    a loading costs only its non-trivial entries.
    """
    total = None
    for j, w in enumerate(weights):
        if w != 0.0:
            t = term(j) if w == 1.0 else w * term(j)
            total = t if total is None else total + t
    return total


# Linear predictors beyond this magnitude overflow exp() or make the
# likelihood meaningless; the fitting loop treats this as "damp the step".
LINPRED_MAX = 700.0


def normalize_structure(name):
    """Map a structure name (case-insensitive) to its canonical form."""
    key = str(name).strip().lower()
    table = {s.lower(): s for s in STRUCTURES}
    if key not in table:
        raise DomainError(
            f"unknown frailty structure {name!r}; expected one of {STRUCTURES}"
        )
    return table[key]


@dataclass(frozen=True)
class FrailtySpec:
    """A frailty structure together with its dispersion parameters.

    Which dispersion fields are carried depends on the structure's row of
    :data:`FRAILTY_LAWS`:

    ========= ======================================
    NF        none
    ScF       sigma_beta
    ShF       sigma_alpha
    IF        sigma_beta, sigma_alpha (rho fixed at 0)
    CF        sigma_beta, phi  (v_alpha = phi * v_beta)
    BVNF      sigma_beta, sigma_alpha, rho
    ========= ======================================
    """

    structure: str
    sigma_beta: float | None = None
    sigma_alpha: float | None = None
    rho: float | None = None
    phi: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "structure", normalize_structure(self.structure))
        s = self.structure
        want = self.dispersion_names()
        for name in ("sigma_beta", "sigma_alpha", "rho", "phi"):
            val = getattr(self, name)
            if name in want:
                if val is None:
                    raise DomainError(f"structure {s} requires {name}")
                if not np.isfinite(val):
                    raise DomainError(f"{name} must be finite")
            elif val is not None:
                raise DomainError(f"structure {s} does not carry {name}")
        for name in self.law.sigmas:
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")
        if self.rho is not None and not (-1.0 < self.rho < 1.0):
            raise DomainError(
                "rho must lie strictly inside (-1, 1); use the CF structure "
                "for perfectly correlated frailties"
            )

    @property
    def law(self):
        return FRAILTY_LAWS[self.structure]

    @property
    def df_r(self):
        """Number of dispersion parameters governing the frailty law."""
        return len(self.dispersion_names())

    def dispersion_names(self):
        return self.law.names

    def dispersion_values(self):
        return tuple(getattr(self, n) for n in self.dispersion_names())

    def dispersion(self):
        """The carried dispersion as a name -> value mapping."""
        return dict(zip(self.dispersion_names(), self.dispersion_values()))

    def with_dispersion(self, values):
        """Return a copy with the carried dispersion parameters replaced."""
        names = self.dispersion_names()
        if len(values) != len(names):
            raise DomainError(
                f"structure {self.structure} carries {len(names)} dispersion "
                f"parameters, got {len(values)}"
            )
        return replace(self, **dict(zip(names, values)))


def _no_repeats(names, what):
    """DataError when a name occurs twice in ``names``: a lookup by name would see one column."""
    repeated = sorted({str(n) for n in names if names.count(n) > 1})
    if repeated:
        raise DataError(f"{what} named more than once: {', '.join(repeated)}")


class Dataset:
    """Clustered survival data held as column arrays.

    Attributes
    ----------
    clusters : ndarray of object, shape (n,)
        Cluster label per record, as given.
    time : ndarray of float, shape (n,)
    status : ndarray of int, shape (n,)
    covariates : ndarray of float, shape (n, p)
    covariate_names : list of str
    """

    def __init__(self, clusters, time, status, covariates, covariate_names):
        self.clusters = np.asarray(clusters, dtype=object)
        self.time = np.asarray(time, dtype=float)
        self.status = np.asarray(status)  # cast after _validate: int() makes 0.7 a 0
        self.covariates = np.asarray(covariates, dtype=float)
        if self.covariates.ndim == 1:
            self.covariates = self.covariates.reshape(-1, 1)
        self.covariate_names = list(covariate_names)
        self._validate()
        self.status = self.status.astype(int)

    def _validate(self):
        n = len(self.time)
        if n == 0:
            raise DataError("dataset is empty")
        if not (len(self.clusters) == len(self.status) == n):
            raise DataError("column lengths differ")
        if self.covariates.shape[0] != n:
            raise DataError("covariate rows do not match record count")
        if self.covariates.shape[1] != len(self.covariate_names):
            raise DataError("covariate names do not match covariate columns")
        _no_repeats(self.covariate_names, "covariate")
        if not np.all(np.isfinite(self.time)) or np.any(self.time <= 0):
            bad = int(np.argmax(~(np.isfinite(self.time) & (self.time > 0))))
            raise DataError("time must be positive and finite", row=bad + 1)
        if not np.all(np.isin(self.status, (0, 1))):
            bad = int(np.argmax(~np.isin(self.status, (0, 1))))
            raise DataError(f"status must be 0 or 1, got {self.status[bad]!r}", row=bad + 1)
        if not np.all(np.isfinite(self.covariates)):
            bad = int(np.argmax(~np.all(np.isfinite(self.covariates), axis=1)))
            raise DataError("covariates must be finite", row=bad + 1)

    @property
    def n(self):
        return len(self.time)

    def cluster_labels(self):
        """Distinct cluster labels in first-appearance order."""
        seen = {}
        for c in self.clusters:
            if c not in seen:
                seen[c] = len(seen)
        return list(seen)

    @classmethod
    def read_csv(cls, path):
        """Read the `cluster,time,status,<covariate>...` CSV schema.

        The header row is required.  Parse failures raise
        :class:`DataError` carrying the 1-based data row number.
        """
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError("file is empty; a header row is required") from None
            header = [h.strip() for h in header]
            if len(header) < 3 or [h.lower() for h in header[:3]] != [
                "cluster",
                "time",
                "status",
            ]:
                raise DataError(
                    "header must start with columns cluster,time,status; "
                    f"got {header[:3]}"
                )
            covariate_names = header[3:]
            clusters, times, statuses, rows = [], [], [], []
            for i, row in enumerate(reader, start=1):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) != len(header):
                    raise DataError(
                        f"expected {len(header)} fields, got {len(row)}", row=i
                    )
                clusters.append(row[0].strip())
                try:
                    t = float(row[1])
                except ValueError:
                    raise DataError(f"time {row[1]!r} is not a number", row=i) from None
                if not (math.isfinite(t) and t > 0):
                    raise DataError(f"time must be positive, got {row[1]!r}", row=i)
                times.append(t)
                status_text = row[2].strip()
                if status_text not in ("0", "1"):
                    raise DataError(
                        f"status must be 0 or 1, got {status_text!r}", row=i
                    )
                statuses.append(int(status_text))
                try:
                    rows.append([float(c) for c in row[3:]])
                except ValueError:
                    raise DataError("covariates must be numeric", row=i) from None
        if not times:
            raise DataError("file contains a header but no data rows")
        covs = np.asarray(rows, dtype=float) if covariate_names else np.empty((len(times), 0))
        return cls(clusters, times, statuses, covs, covariate_names)


class ModelDesign:
    """Design matrices plus the response columns the likelihood needs.

    ``X_beta``/``X_alpha`` carry a leading intercept column; ``cluster_index``
    maps each record to a cluster in first-appearance order.
    """

    def __init__(self, X_beta, X_alpha, cluster_index, cluster_labels,
                 time, status, scale_names, shape_names, covariate_values):
        self.X_beta = np.ascontiguousarray(X_beta, dtype=float)
        self.X_alpha = np.ascontiguousarray(X_alpha, dtype=float)
        self.cluster_index = np.asarray(cluster_index, dtype=np.intp)
        self.cluster_labels = list(cluster_labels)
        self.time = np.asarray(time, dtype=float)
        self.status = np.asarray(status, dtype=float)
        self.log_time = np.log(self.time)
        self.scale_names = list(scale_names)
        self.shape_names = list(shape_names)
        # raw covariate columns by name, for empirical modes in reporting
        self.covariate_values = dict(covariate_values)
        self.q = len(self.cluster_labels)
        self.n = len(self.time)
        self.cluster_sizes = np.bincount(self.cluster_index, minlength=self.q)
        # the last record pass of any evaluator on this design, see hlik.Evaluator._kept
        self.kept_pass = None

    @cached_property
    def cluster_sums(self):
        """(Z, S_beta, S_alpha): sparse matrices whose products with record weights are cluster sums.

        Row a*q + i of S_beta holds column a of X_beta on cluster i's
        records, in record order, so that (S_beta @ w) reshaped to
        (m_beta, q) is X_beta' diag(w) Z for the cluster incidence Z;
        likewise S_alpha for X_alpha, and Z' itself, whose product holds the
        cluster sums of w.  The intercept rows of S_beta and S_alpha are
        Z' too.  scipy's CSR product adds every entry from 0.0 in stored
        order, which gives each sum the bits of ``np.bincount`` over the
        records.  Built once per design.
        """
        n, q = self.n, self.q
        # 32-bit indices where they fit: half the memory of 64-bit ones
        nnz = (1 + self.m_beta + self.m_alpha) * n
        itype = np.int32 if nnz < 2**31 else np.intp
        order = np.argsort(self.cluster_index, kind="stable").astype(itype)
        starts = np.concatenate([[0], np.cumsum(self.cluster_sizes)[:-1]])

        def rows(X):
            m = X.shape[1]
            indptr = np.empty(m * q + 1, dtype=itype)
            indptr[:-1] = (np.arange(m)[:, None] * n + starts).ravel()
            indptr[-1] = m * n
            return scipy.sparse.csr_array((X[order].T.ravel(), np.tile(order, m), indptr),
                                          shape=(m * q, n))

        return rows(np.ones((n, 1))), rows(self.X_beta), rows(self.X_alpha)

    @property
    def m_beta(self):
        return self.X_beta.shape[1]

    @property
    def m_alpha(self):
        return self.X_alpha.shape[1]


def build_design(dataset, scale_covariates=None, shape_covariates=None):
    """Build the scale/shape design matrices and cluster incidence.

    Both covariate lists default to all covariates in the dataset; the
    scale and shape components may use different subsets.  Cluster
    ordering is first appearance, which makes the design (and hence the
    reported frailty labels) reproducible for a given file.
    """
    if scale_covariates is None:
        scale_covariates = list(dataset.covariate_names)
    if shape_covariates is None:
        shape_covariates = list(dataset.covariate_names)

    name_to_col = {name: j for j, name in enumerate(dataset.covariate_names)}
    _no_repeats(list(scale_covariates), "scale covariate")
    _no_repeats(list(shape_covariates), "shape covariate")
    for name in list(scale_covariates) + list(shape_covariates):
        if name not in name_to_col:
            raise DataError(
                f"unknown covariate {name!r}; dataset has {dataset.covariate_names}"
            )

    def with_intercept(names):
        cols = [np.ones(dataset.n)]
        cols += [dataset.covariates[:, name_to_col[v]] for v in names]
        return np.column_stack(cols)

    labels = dataset.cluster_labels()
    if len(labels) == 1:
        warnings.warn(
            "dataset has a single cluster; frailty variance is unidentifiable",
            stacklevel=2,
        )
    index_of = {lab: i for i, lab in enumerate(labels)}
    cluster_index = np.fromiter(
        (index_of[c] for c in dataset.clusters), dtype=np.intp, count=dataset.n
    )

    covariate_values = {
        name: dataset.covariates[:, j].copy() for name, j in name_to_col.items()
    }
    return ModelDesign(
        X_beta=with_intercept(scale_covariates),
        X_alpha=with_intercept(shape_covariates),
        cluster_index=cluster_index,
        cluster_labels=labels,
        time=dataset.time,
        status=dataset.status,
        scale_names=["(Intercept)"] + list(scale_covariates),
        shape_names=["(Intercept)"] + list(shape_covariates),
        covariate_values=covariate_values,
    )

