"""Null-form algebra: cancellation, bilinearity, system evaluation."""

import numpy as np
import pytest

from nullwave.errors import ParamError
from nullwave.nullforms import (FORM_IDS, NullFormSpec, accumulate_system,
                                eval_components)


def plane_wave_gradients(rng, n):
    """Gradients of u = a sin(xi.x - |xi| t + phase): exactly null.

    Shape (4, n): the components (d_t, d_1, d_2, d_3) come first.
    """
    xi = rng.normal(size=(n, 3))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    xi *= rng.uniform(0.2, 3.0, size=(n, 1))
    amp = rng.uniform(0.5, 2.0, size=n)
    phase = rng.uniform(0, 2 * np.pi, size=n)
    c = amp * np.cos(phase)
    du = np.empty((n, 4))
    du[:, 0] = -np.linalg.norm(xi, axis=1) * c
    du[:, 1:] = xi * c[:, None]
    return du.T


def test_q0_cancels_on_parallel_null_directions():
    rng = np.random.default_rng(11)
    du = plane_wave_gradients(rng, 1000)
    assert np.max(np.abs(eval_components("q0", du, du))) < 1e-13


def test_qjk_cancels_exactly_on_same_wave():
    rng = np.random.default_rng(17)
    du = plane_wave_gradients(rng, 1000)
    for form in FORM_IDS[1:]:
        assert np.max(np.abs(eval_components(form, du, du))) == 0.0


def test_q0_known_value():
    du = np.array([2.0, 1.0, 0.0, -1.0])
    dv = np.array([3.0, -1.0, 2.0, 5.0])
    # dt*dt' - grad.grad' = 6 - (-1 + 0 - 5) = 12
    assert eval_components("q0", du, dv) == pytest.approx(12.0)


def test_qjk_known_value_and_antisymmetry():
    du = np.array([2.0, 1.0, 0.0, -1.0])
    dv = np.array([3.0, -1.0, 2.0, 5.0])
    # Q_{12}(du, dv) = du_1 dv_2 - du_2 dv_1 = 1*2 - 0*(-1) = 2
    assert eval_components("q12", du, dv) == pytest.approx(2.0)
    assert eval_components("q12", dv, du) == pytest.approx(-2.0)
    # Q_{0j} involves the time slot
    assert eval_components("q01", du, dv) == pytest.approx(2.0 * -1.0
                                                           - 1.0 * 3.0)


def test_qjk_rejects_bad_indices():
    # only 0 <= j < k <= 3 name a form
    du = np.zeros(4)
    for form in ("q11", "q21", "q04", "q-12"):
        with pytest.raises(ParamError):
            eval_components(form, du, du)


def test_bilinearity():
    rng = np.random.default_rng(19)
    du, dv, dw = rng.normal(size=(3, 4, 50))
    a, b = 1.7, -0.3
    for form in FORM_IDS:
        lhs = eval_components(form, du, a * dv + b * dw)
        rhs = (a * eval_components(form, du, dv)
               + b * eval_components(form, du, dw))
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_eval_components_dispatch_and_rejection():
    du = np.ones(4)
    assert eval_components("q0", du, du) == pytest.approx(1.0 - 3.0)
    assert eval_components("q12", du, du) == pytest.approx(0.0)
    # q0 takes any number of spatial components: the radial pair works
    assert eval_components("q0", du[:2], du[:2]) == pytest.approx(0.0)
    with pytest.raises(ParamError):
        eval_components("q99", du, du)


def test_spec_constructors_and_flags():
    q0 = NullFormSpec.scalar_q0()
    assert q0.n_components == 1
    assert not q0.is_linear()
    assert q0.radial_compatible()

    lin = NullFormSpec.linear(2)
    assert lin.is_linear()
    assert lin.n_components == 2

    mixed = NullFormSpec(2, [(0, 0, 1, 1.0, "q0"), (1, 0, 0, -2.0, "q12")])
    assert not mixed.radial_compatible()


def test_spec_validation():
    with pytest.raises(ParamError):
        NullFormSpec(0, [])
    with pytest.raises(ParamError):
        NullFormSpec(1, [(0, 0, 1, 1.0, "q0")])      # index out of range
    with pytest.raises(ParamError):
        NullFormSpec(1, [(0, 0, 0, 1.0, "nope")])    # unknown form
    with pytest.raises(ParamError):
        NullFormSpec(1, [(0, 0, 0, np.inf, "q0")])   # non-finite coeff


def test_accumulate_system_coupled():
    rng = np.random.default_rng(23)
    # per solution component, the gradient components first
    du = rng.normal(size=(2, 4, 40))
    spec = NullFormSpec(2, [(0, 0, 1, 2.0, "q0"), (1, 1, 1, 1.0, "q01")])
    out = accumulate_system(spec, du, du, np.zeros((2, 40)))
    assert np.allclose(out[0], 2.0 * eval_components("q0", du[0], du[1]))
    assert np.allclose(out[1], eval_components("q01", du[1], du[1]))
    # radial gradient pairs (d_t, d_r) skip the rotational forms
    radial = du[:, :2]
    out = accumulate_system(spec, radial, radial, np.zeros((2, 40)))
    assert np.allclose(out[0], 2.0 * (du[0, 0] * du[1, 0]
                                      - du[0, 1] * du[1, 1]))
    assert np.all(out[1] == 0.0)


def test_q0_of_one_gradient_is_made_from_squares():
    # du is dv: the squares give the products' bytes, with a workspace or
    # without one
    du = np.random.default_rng(29).normal(size=(4, 40))
    want = eval_components("q0", du, du.copy())
    assert eval_components("q0", du, du).tobytes() == want.tobytes()
    assert eval_components("q0", du, du, work=(None, None)).tobytes() \
        == want.tobytes()
    o, p = np.empty((2, 40))
    assert eval_components("q0", du, du, (o, p)) is o
    assert o.tobytes() == want.tobytes()


def test_accumulate_system_writes_its_output():
    # the system's value, whatever out held: first terms are written,
    # later ones added, a coefficient of 1 is not multiplied, and a
    # component without a term is zeroed
    du = np.random.default_rng(31).normal(size=(2, 4, 40))
    spec = NullFormSpec(3, [(0, 0, 0, 1.0, "q0"), (0, 0, 1, -2.0, "q12"),
                            (2, 1, 1, 0.5, "q0")])
    want = accumulate_system(spec, du, du, np.zeros((3, 40)))
    out = accumulate_system(spec, du, du, np.full((3, 40), np.nan))
    assert out.tobytes() == want.tobytes()
    assert np.all(out[1] == 0.0)
    assert out[0].tobytes() == (eval_components("q0", du[0], du[0])
                                + -2.0 * eval_components(
                                    "q12", du[0], du[1])).tobytes()
    assert out[2].tobytes() == (
        0.5 * eval_components("q0", du[1], du[1])).tobytes()


def test_scalar_q0_coefficient():
    du = np.array([1.0, 2.0, 0.0, 0.0])
    spec = NullFormSpec.scalar_q0(coeff=-3.0)
    out = accumulate_system(spec, [du], [du], np.zeros(1))
    assert out[0] == pytest.approx(-3.0 * (1.0 - 4.0))
