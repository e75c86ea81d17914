"""Null forms on Minkowski gradients and their conformal transform.

A gradient is an ndarray with trailing dimension 4, components ordered
(d/dt, d/dx1, d/dx2, d/dx3); eval_components takes the same components
as a sequence of arrays instead, which needs no stacked copy.  The basic
forms:

    q0(du, dv)  = du_t dv_t - sum_j du_j dv_j
    qjk(du, dv) = du_j dv_k - du_k dv_j,   0 <= j < k <= 3

Both cancel on parallel characteristic directions, which is the structure
the global existence construction relies on.
"""

import numpy as np

from . import penrose
from .errors import DomainError, ParamError

# forms accepted in system specifications
FORM_IDS = ("q0", "q01", "q02", "q03", "q12", "q13", "q23")

NULL_INFINITY_GUARD = 1e-8


def eval_components(form, du, dv):
    """One named form on gradient component sequences (d_t, d_1, ...).

    q0 takes any number of spatial components, so the radial pair
    (d_t, d_r) works as well as the full four.
    """
    if form == "q0":
        s = du[1] * dv[1]
        for a, b in zip(du[2:], dv[2:]):
            s += a * b
        return du[0] * dv[0] - s
    if form not in FORM_IDS:
        raise ParamError("unknown form id %r" % (form,))
    j, k = int(form[1]), int(form[2])
    return du[j] * dv[k] - du[k] * dv[j]


def _components(grad):
    # trailing-4 gradient -> view with the components first
    return np.moveaxis(np.asarray(grad, dtype=float), -1, 0)


def eval_q0(du, dv):
    return eval_components("q0", _components(du), _components(dv))


def eval_qjk(j, k, du, dv):
    if not (0 <= j < k <= 3):
        raise IndexError("need 0 <= j < k <= 3, got (%r, %r)" % (j, k))
    return eval_components("q%d%d" % (j, k), _components(du),
                           _components(dv))


def eval_form(form, du, dv):
    """Evaluate one named form ("q0" or "qJK")."""
    return eval_components(form, _components(du), _components(dv))


class NullFormSpec:
    """A null-form system.

    Component i of the output is sum over terms (i, j, k, a, form) of
    a * form(du^j, du^k), with j, k indexing solution components (0-based).
    """

    def __init__(self, n_components, terms):
        if n_components < 1:
            raise ParamError("n_components must be >= 1")
        self.n_components = int(n_components)
        clean = []
        for (i, j, k, a, form) in terms:
            i, j, k = int(i), int(j), int(k)
            a = float(a)
            for idx in (i, j, k):
                if not (0 <= idx < self.n_components):
                    raise ParamError("component index %d out of range" % idx)
            if form not in FORM_IDS:
                raise ParamError("unknown form id %r" % (form,))
            if not np.isfinite(a):
                raise ParamError("coefficient must be finite")
            clean.append((i, j, k, a, form))
        self.terms = tuple(clean)

    @classmethod
    def scalar_q0(cls, coeff=1.0):
        """The single-component system Q = coeff * q0(du, du)."""
        return cls(1, [(0, 0, 0, coeff, "q0")])

    @classmethod
    def linear(cls, n_components=1):
        """No nonlinearity at all (every coefficient zero)."""
        return cls(n_components, [])

    def is_linear(self):
        return len(self.terms) == 0

    def radial_compatible(self):
        """Whether every term survives restriction to spherical symmetry."""
        return all(form == "q0" for (_, _, _, _, form) in self.terms)

    def __repr__(self):
        return "NullFormSpec(n=%d, terms=%r)" % (self.n_components, self.terms)


def accumulate_system(spec: NullFormSpec, du, dv, out):
    """Add the system Q(du, dv) into out; returns out.

    du[j] and dv[k] are the gradient component sequences (d_t, d_1, ...)
    of solution components j and k; out[i] receives output component i.
    With fewer than four gradient components, as in the radial pair
    (d_t, d_r), only q0 terms are evaluated: the rotational forms vanish
    identically on spherically symmetric fields.
    """
    for (i, j, k, a, form) in spec.terms:
        if form != "q0" and len(du[j]) < 4:
            continue
        out[i] += a * eval_components(form, du[j], dv[k])
    return out


def eval_system(spec: NullFormSpec, grads):
    """Evaluate the system on gradients of shape (N, ..., 4); returns (N, ...)."""
    grads = np.asarray(grads, dtype=float)
    if grads.ndim < 2 or grads.shape[0] != spec.n_components or grads.shape[-1] != 4:
        raise ParamError(
            "gradients must have shape (%d, ..., 4), got %r"
            % (spec.n_components, grads.shape)
        )
    du = [_components(g) for g in grads]
    out = np.zeros((spec.n_components,) + grads.shape[1:-1])
    return accumulate_system(spec, du, du, out)


def transformed_q(q: "penrose.EinsteinPoint", u_vals, u_grads, v_vals, v_grads,
                  spec: NullFormSpec):
    """The conformally transformed bilinear form at diamond points q.

    Inputs are cylinder-side samples: u_vals has shape (N,) + S with S the
    shape of q, u_grads has shape (N,) + S + (7,) holding the seven
    Gamma-derivative values.  Returns Omega^{-3} Q(d(Omega u), d(Omega v))
    evaluated at the preimage, shape (N,) + S.

    Minkowski derivatives of Omega u are assembled by the chain rule from
    the Gamma derivatives and the closed-form gradient of Omega; nothing is
    finite-differenced here.
    """
    den = np.cos(q.T) + np.cos(q.R)
    if np.any(den < NULL_INFINITY_GUARD):
        raise DomainError("too close to null infinity (cos T + X0 < %g)"
                          % NULL_INFINITY_GUARD)
    u_vals = np.asarray(u_vals, dtype=float)
    v_vals = np.asarray(v_vals, dtype=float)
    u_grads = np.asarray(u_grads, dtype=float)
    v_grads = np.asarray(v_grads, dtype=float)
    N = spec.n_components
    if u_vals.shape[0] != N or v_vals.shape[0] != N:
        raise ParamError("value arrays must have leading dimension %d" % N)
    if u_grads.shape[-1] != 7 or v_grads.shape[-1] != 7:
        raise ParamError("gradient arrays must have trailing dimension 7")

    p = penrose.from_einstein(q)
    r = p.r
    w = p.omega
    om = penrose.conformal_factor_tr(p.t, r)
    dom_t, dom_r = penrose.conformal_gradient_tr(p.t, r)
    dom = np.empty(om.shape + (4,))
    dom[..., 0] = dom_t
    dom[..., 1:] = w * dom_r[..., None]

    M = penrose.gamma_matrix(q.T, q.X)[..., :4, :]    # rows d/dt, d/dx_j

    def mink_grad(vals, grads):
        # d_a(Omega * u o P) = (d_a Omega) u + Omega * sum_c M[a,c] Gamma_c u
        chain = np.einsum("...ac,n...c->n...a", M, grads)
        return dom[None] * vals[..., None] + om[None, ..., None] * chain

    du = mink_grad(u_vals, u_grads)
    dv = mink_grad(v_vals, v_grads)

    out = np.zeros((N,) + du.shape[1:-1])
    accumulate_system(spec, [_components(d) for d in du],
                      [_components(d) for d in dv], out)
    return out / om[None] ** 3
