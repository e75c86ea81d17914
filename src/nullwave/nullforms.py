"""Null forms on Minkowski gradients.

A gradient is a sequence of component arrays ordered (d/dt, d/dx1,
d/dx2, d/dx3): a tuple of arrays, which needs no stacked copy, or an
ndarray with the components on its first axis (du.T for an array with
trailing components).  eval_components evaluates one named form on
such gradients and accumulate_system a whole system.  The basic forms:

    q0(du, dv)  = du_t dv_t - sum_j du_j dv_j
    qjk(du, dv) = du_j dv_k - du_k dv_j,   0 <= j < k <= 3

Both cancel on parallel characteristic directions, which is the structure
the global existence construction relies on.
"""

import numpy as np

from .errors import ParamError

# forms accepted in system specifications
FORM_IDS = ("q0", "q01", "q02", "q03", "q12", "q13", "q23")


def eval_components(form, du, dv, work=(None, None)):
    """One named form on gradient component sequences (d_t, d_1, ...).

    q0 takes any number of spatial components, so the radial pair
    (d_t, d_r) works as well as the full four.  work, if given, is a pair
    of arrays that take the products, the result in the first.
    """
    o, p = work
    if form == "q0":
        s = np.multiply(du[1], dv[1], out=o)
        for a, b in zip(du[2:], dv[2:]):
            s += np.multiply(a, b, out=p)
        return np.subtract(np.multiply(du[0], dv[0], out=p), s, out=o)
    if form not in FORM_IDS:
        raise ParamError("unknown form id %r" % (form,))
    j, k = int(form[1]), int(form[2])
    return np.subtract(np.multiply(du[j], dv[k], out=o),
                       np.multiply(du[k], dv[j], out=p), out=o)


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


def accumulate_system(spec: NullFormSpec, du, dv, out, work=(None, None)):
    """Add the system Q(du, dv) into out; returns out.

    du[j] and dv[k] are the gradient component sequences (d_t, d_1, ...)
    of solution components j and k; out[i] receives output component i.
    With fewer than four gradient components, as in the radial pair
    (d_t, d_r), only q0 terms are evaluated: the rotational forms vanish
    identically on spherically symmetric fields.  work: eval_components.
    """
    for (i, j, k, a, form) in spec.terms:
        if form != "q0" and len(du[j]) < 4:
            continue
        out[i] += np.multiply(a, eval_components(form, du[j], dv[k], work),
                              out=work[0])
    return out
