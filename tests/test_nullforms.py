"""Null-form algebra: cancellation, bilinearity, system evaluation."""

import numpy as np
import pytest

from nullwave import nullforms
from nullwave.errors import ParamError
from nullwave.nullforms import (FORM_IDS, NullFormSpec, accumulate_system,
                                eval_form, eval_q0, eval_qjk)


def plane_wave_gradients(rng, n):
    """Gradients of u = a sin(xi.x - |xi| t + phase): exactly null."""
    xi = rng.normal(size=(n, 3))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    xi *= rng.uniform(0.2, 3.0, size=(n, 1))
    amp = rng.uniform(0.5, 2.0, size=n)
    phase = rng.uniform(0, 2 * np.pi, size=n)
    c = amp * np.cos(phase)
    du = np.empty((n, 4))
    du[:, 0] = -np.linalg.norm(xi, axis=1) * c
    du[:, 1:] = xi * c[:, None]
    return du


def test_q0_cancels_on_parallel_null_directions():
    rng = np.random.default_rng(11)
    du = plane_wave_gradients(rng, 1000)
    assert np.max(np.abs(eval_q0(du, du))) < 1e-13


def test_qjk_cancels_exactly_on_same_wave():
    rng = np.random.default_rng(17)
    du = plane_wave_gradients(rng, 1000)
    for j in range(4):
        for k in range(j + 1, 4):
            assert np.max(np.abs(eval_qjk(j, k, du, du))) == 0.0


def test_q0_known_value():
    du = np.array([2.0, 1.0, 0.0, -1.0])
    dv = np.array([3.0, -1.0, 2.0, 5.0])
    # dt*dt' - grad.grad' = 6 - (-1 + 0 - 5) = 12
    assert eval_q0(du, dv) == pytest.approx(12.0)


def test_qjk_known_value_and_antisymmetry():
    du = np.array([2.0, 1.0, 0.0, -1.0])
    dv = np.array([3.0, -1.0, 2.0, 5.0])
    # Q_{12}(du, dv) = du_1 dv_2 - du_2 dv_1 = 1*2 - 0*(-1) = 2
    assert eval_qjk(1, 2, du, dv) == pytest.approx(2.0)
    assert eval_qjk(1, 2, dv, du) == pytest.approx(-2.0)
    # Q_{0j} involves the time slot
    assert eval_qjk(0, 1, du, dv) == pytest.approx(2.0 * -1.0 - 1.0 * 3.0)


def test_qjk_rejects_bad_indices():
    du = np.zeros(4)
    for j, k in ((1, 1), (2, 1), (0, 4), (-1, 2)):
        with pytest.raises(IndexError):
            eval_qjk(j, k, du, du)


def test_bilinearity():
    rng = np.random.default_rng(19)
    du, dv, dw = rng.normal(size=(3, 50, 4))
    a, b = 1.7, -0.3
    for form in FORM_IDS:
        lhs = eval_form(form, du, a * dv + b * dw)
        rhs = a * eval_form(form, du, dv) + b * eval_form(form, du, dw)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_eval_form_dispatch_and_rejection():
    du = np.ones(4)
    assert eval_form("q0", du, du) == pytest.approx(1.0 - 3.0)
    assert eval_form("q12", du, du) == pytest.approx(0.0)
    with pytest.raises(ParamError):
        eval_form("q99", du, du)


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


def _components(grads):
    # per solution component, the gradient components first
    return [nullforms._components(g) for g in grads]


def test_accumulate_system_coupled():
    rng = np.random.default_rng(23)
    grads = rng.normal(size=(2, 40, 4))
    spec = NullFormSpec(2, [(0, 0, 1, 2.0, "q0"), (1, 1, 1, 1.0, "q01")])
    du = _components(grads)
    out = accumulate_system(spec, du, du, np.zeros((2, 40)))
    assert np.allclose(out[0], 2.0 * eval_q0(grads[0], grads[1]))
    assert np.allclose(out[1], eval_qjk(0, 1, grads[1], grads[1]))
    # radial gradient pairs (d_t, d_r) skip the rotational forms
    du = [d[:2] for d in du]
    out = accumulate_system(spec, du, du, np.zeros((2, 40)))
    assert np.allclose(out[0], 2.0 * (grads[0, :, 0] * grads[1, :, 0]
                                      - grads[0, :, 1] * grads[1, :, 1]))
    assert np.all(out[1] == 0.0)


def test_scalar_q0_coefficient():
    du = np.array([1.0, 2.0, 0.0, 0.0])
    spec = NullFormSpec.scalar_q0(coeff=-3.0)
    out = accumulate_system(spec, _components(du[None]),
                            _components(du[None]), np.zeros(1))
    assert out[0] == pytest.approx(-3.0 * (1.0 - 4.0))
