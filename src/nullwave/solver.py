"""Explicit stepping for the exterior Dirichlet wave equation.

The scheme is velocity Verlet (kick-drift-kick), algebraically the same
u-sequence as the classic leapfrog u^{n+1} = 2u^n - u^{n-1} + dt^2 (Lap u + F)
when the forcing is sampled at the step midpoint, but it carries the
velocity explicitly, which makes energy evaluation and sponge damping
plain pointwise operations.

The second kick of a step and the first kick of the next one use the same
acceleration, so the kernel keeps (dt/2) L(u) from the end of each step
and evaluates the spatial operator once per step.  The grid's operator
is bound once per run with scale dt/2, so each half kick is one add,
v += lap, and a forcing's one more, v += (dt/2) f.  The kernel updates u
and v in place through two field-sized buffers and allocates nothing per
step.  The sponge damps only its band: the nodes before the first one
it damps would be multiplied by exp(-0.0) = 1.0, so the step skips them.

The run's buffers are laid out against 64-byte cache lines with
fd.empty_aligned: u, v and the forcing's buffer start on a line, and lap
and tmp 56 bytes past one, so that their interiors lap[..., 1:-1] and
tmp[..., 1:-1], which the radial stencil writes, start on a line (a
stack's first row).  numpy's arrays only get malloc's 16-byte alignment,
placed by the heap's history, and the radial step's speed depends on
that placement: at 8001 nodes (l = 1) a run to t_end 20 took 0.090 to
0.228 s as the offsets of u, lap/tmp and the operator's scaled
coefficients were forced to 0, 8, 32 or 56 bytes, and this layout was
the fastest.  So every run gets it, not the one the heap happens to give.

solve_linear is the one entry point.  A run takes step_count steps and
has a snapshot every stride steps, n_steps // stride + 1 in all, and it
keeps only the first and the last (u, v): the returned trajectory has
times [0, t_final] and stride n_steps, so memory does not grow with
t_end.  Given observe(i, u, v), the run calls it at each snapshot i with
the live (u, v) buffers, as read-only views that the next step
overwrites; v is the u_t that every observer reads.  An observer keeps
what it needs by reducing the state (local_energy_fn gives one such
reduction) or by copying it.  Step k reads rows k and k + 1 of a
recorded forcing only, so an observer may overwrite the rows below
i * stride at observe(i, u, v), and every row at the last one.  A
recorded forcing may be float32 (Picard stores its forcing so); the
step averages its rows in float64.  run-linear observes its local
energies, and every Picard sweep is observed too (see nullwave.picard).

The grid (see nullwave.exterior) supplies the spatial operator, the
Dirichlet pinning and the energy.  Leading axes are allowed, so a stack
of components evolves in one call.
"""

import numpy as np

from . import fd
from .errors import CFLError, FitError, NaNError, ParamError
from .exterior import InitialData

CFL_SAFETY = 0.9
NAN_CHECK_INTERVAL = 100


def cfl_limit(grid):
    """Largest admissible dt for the explicit scheme on this grid."""
    return CFL_SAFETY * grid.h / np.sqrt(grid.ndim)


def _damping(grid, dt):
    """(start, factors) of the sponge, or None where it damps no node.

    start is the first flat node whose sponge_sigma is nonzero, and
    factors are the per-step exp(-sigma dt) of the nodes from it on, at
    the offset from a 64-byte line that node start of a row on a line
    has.  Every node before start has the factor exp(-0.0) = 1.0.
    """
    sigma = grid.sponge_sigma().ravel()
    damped = np.flatnonzero(sigma)
    if not damped.size:
        return None
    start = int(damped[0])
    factors = fd.empty_aligned(sigma.size - start,
                               offset=8 * start % fd.CACHE_LINE)
    np.copyto(factors, np.exp(-sigma * dt)[start:])
    return start, factors


def _advance(grid, kick, u, v, lap, tmp, dt, f_half, band, damp):
    """One velocity-Verlet step of (u, v), in place.

    kick() is grid.operator(u, lap, tmp, 0.5 * dt): lap holds (dt/2) L(u)
    on entry and (dt/2) L of the new u on return, and tmp is its scratch
    and the drift's.  f_half is (dt/2) f or None.  band is the view of v
    at the sponge's nodes and damp their factors, both None without a
    sponge.  Every operation keeps the operand order of
    vh = (v + (dt/2) L(u)) + (dt/2) f, un = u + dt vh,
    vn = ((vh + (dt/2) L(un)) + (dt/2) f) * damp, with (dt/2) L made from
    pre-scaled coefficients, so the bytes do not depend on whether
    (dt/2) L(u) was carried over or evaluated afresh.
    """
    v += lap
    if f_half is not None:
        v += f_half
    np.multiply(v, dt, out=tmp)
    u += tmp
    # pinned nodes are zeroed after each update, whatever the spatial
    # operator left there; pin before the second kick so near-boundary
    # stencils read the pinned values, not the drifted ones
    grid.pin(u)
    kick()
    v += lap
    if f_half is not None:
        v += f_half
    if damp is not None:
        band *= damp
    grid.pin(v)


class Trajectory:
    """Rows of a run, stride steps of size dt apart, at the given times.

    solve_linear returns the first and the last (u, v) of its run, with
    times [0, t_final] and stride n_steps.
    """

    def __init__(self, grid, times, u, v=None, dt=None, stride=1):
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or len(times) < 1:
            raise ParamError("times must be a nonempty 1d array")
        if len(times) > 1 and np.any(np.diff(times) <= 0):
            raise ParamError("times must be strictly increasing")
        self.grid = grid
        self.times = times
        self.u = u
        self.v = v
        self.dt = dt
        self.stride = stride


def step_count(t_end, dt, stride=1):
    """The number of steps solve_linear takes to reach t_end at step dt.

    At least one, rounded up to a multiple of stride; a stride above
    the unrounded count is refused, and so is a t_end or dt that is not
    finite and positive, or whose quotient is not finite.
    """
    if not (0 < t_end < np.inf and 0 < dt < np.inf):  # NaN fails too
        raise ParamError("t_end %g and dt %g must be positive and finite"
                         % (t_end, dt))
    steps = float(t_end) / float(dt)  # inf, not a warning, on overflow
    if steps == np.inf:
        raise ParamError("t_end %g over dt %g is not a finite step count"
                         % (t_end, dt))
    n_steps = max(int(np.ceil(steps - 1e-12)), 1)
    if stride > n_steps:
        raise ParamError("stride %d exceeds the %d steps of the run"
                         % (stride, n_steps))
    return n_steps + (-n_steps) % stride


def _check_forcing_shape(got, data):
    """Refuse a forcing field that is neither of the data's shape nor one
    grid field, which every component gets."""
    if got not in (data.f.shape, data.grid.shape):
        raise ParamError("forcing fields of shape %s do not match the data's "
                         "%s" % (got, data.f.shape))


def solve_linear(data: InitialData, forcing, t_end, dt=None, stride=1,
                 observe=None):
    """March the linear wave equation to at least t_end.

    forcing may be None, a callable t -> field (evaluated at step
    midpoints), or an array of per-step fields of shape
    (n_steps + 1,) + field shape, in which case midpoint values are taken
    as adjacent averages.  A forcing field has the data's shape, or is
    one grid field that every component gets; another shape is refused,
    not broadcast.  The run takes step_count(t_end, dt, stride) steps.

    Returns the Trajectory of the first and the last (u, v).  With
    observe, every stride-th step's snapshot i goes to observe(i, u, v)
    as read-only views of the live buffers (see the module docstring).
    """
    grid = data.grid
    limit = cfl_limit(grid)
    if dt is None:
        dt = limit
    if dt > limit * (1.0 + 1e-12):
        raise CFLError("dt=%g exceeds CFL limit %g" % (dt, limit))
    if stride < 1:
        raise ParamError("stride must be >= 1")
    n_steps = step_count(t_end, dt, stride)

    recorded = None
    if isinstance(forcing, np.ndarray):
        recorded = forcing
        if recorded.shape[0] < n_steps + 1:
            raise ParamError("recorded forcing shorter than the run")
        _check_forcing_shape(recorded.shape[1:], data)

    # the buffers' layout is the module docstring's; lap and tmp are two
    # allocations, as a (2,) + shape stack would put tmp at another offset
    shape = data.f.shape
    u, v = fd.empty_aligned(shape), fd.empty_aligned(shape)
    np.copyto(u, data.f)
    np.copyto(v, data.g)
    grid.pin(u)
    grid.pin(v)

    band = damp = None
    damping = _damping(grid, dt)
    if damping is not None:
        start, damp = damping
        band = v.reshape(shape[:len(shape) - grid.ndim] + (-1,))[..., start:]
    half = 0.5 * dt
    lap, tmp = fd.empty_aligned(shape, 56), fd.empty_aligned(shape, 56)
    kick = grid.operator(u, lap, tmp, half)
    kick()
    if forcing is not None:
        f_buf = fd.empty_aligned(shape)

    # views of the live buffers that the observer cannot write through
    u_seen, v_seen = u.view(), v.view()
    u_seen.flags.writeable = v_seen.flags.writeable = False
    if observe is not None:
        observe(0, u_seen, v_seen)

    t = 0.0
    for k in range(n_steps):
        if recorded is not None:
            # in float64 whatever the forcing's dtype: a float32 sum
            # would round before the cast
            f_half = np.add(recorded[k], recorded[k + 1], out=f_buf,
                            dtype=np.float64)
            f_half *= 0.25 * dt
        elif callable(forcing):
            f_now = forcing(t + half)
            if not k:
                _check_forcing_shape(np.shape(f_now), data)
            f_half = np.multiply(f_now, half, out=f_buf)
        else:
            f_half = None
        _advance(grid, kick, u, v, lap, tmp, dt, f_half, band, damp)
        t = (k + 1) * dt
        if (k + 1) % NAN_CHECK_INTERVAL == 0 and not np.all(np.isfinite(u)):
            raise NaNError("non-finite field at t=%g" % t)
        if observe is not None and (k + 1) % stride == 0:
            observe((k + 1) // stride, u_seen, v_seen)
    if not np.all(np.isfinite(u)):
        raise NaNError("non-finite field at final time %g" % t)

    # the first (u, v), as the run started from it, and the last
    del kick, lap, tmp
    us, vs = np.empty((2, 2) + shape)
    us[0], vs[0] = data.f, data.g
    grid.pin(us[0])
    grid.pin(vs[0])
    us[1], vs[1] = u, v
    # the last snapshot's time as dt * stride * arange gives it, to the bit
    times = np.array([0.0, dt * stride * (n_steps // stride)])
    return Trajectory(grid, times, us, vs, dt=dt, stride=n_steps)


# ---------------------------------------------------------------------------
# energy functionals

def local_energy_fn(grid, A):
    """The local energy on grid as a function of (u, v).

    The energy is the sum of |du|^2 + |u|^2 over evolved nodes,
    restricted to |x| < A; A = None means no restriction.  All terms are
    nonnegative, so the value is nondecreasing in A.  A is checked, and
    the ball |x| < A and the grid's weights on it (grid.energy_fn) are
    found once, so an observer that reduces every snapshot of a run pays
    for them once.
    """
    if A is not None and A <= 0:
        raise ParamError("A must be positive")
    return grid.energy_fn(None if A is None else grid.radii() < A)


# ---------------------------------------------------------------------------
# decay fitting

class DecayFit:
    """Least-squares decay model for a positive time series.

    model "exponential": value ~ amplitude * exp(-rate * t).
    model "power": value ~ amplitude * (1 + t)^rate, rate signed
    (negative for decay).  residual is the RMS misfit of log(value).
    """

    def __init__(self, model, rate, amplitude, window, residual):
        self.model = model
        self.rate = float(rate)
        self.amplitude = float(amplitude)
        self.window = (float(window[0]), float(window[1]))
        self.residual = float(residual)

    def __repr__(self):
        return ("DecayFit(%s, rate=%.6g, amplitude=%.6g, window=%s, "
                "residual=%.3g)" % (self.model, self.rate, self.amplitude,
                                    self.window, self.residual))


def fit_decay(series, model, window=None):
    """Fit log(value) against t or log(1+t) over an optional window.

    series is the pair (t, values) of equal-length 1d arrays.
    """
    if model not in ("exponential", "power"):
        raise ParamError("model must be 'exponential' or 'power'")
    t = np.asarray(series[0], dtype=float)
    val = np.asarray(series[1], dtype=float)
    if window is not None:
        keep = (t >= window[0]) & (t <= window[1])
        t, val = t[keep], val[keep]
    if len(t) < 10:
        raise FitError("need at least 10 samples in the fit window")
    if np.any(val <= 0):
        raise FitError("decay fit requires positive values")
    x = t if model == "exponential" else np.log1p(t)
    y = np.log(val)
    slope, intercept = np.polyfit(x, y, 1)
    resid = np.sqrt(np.mean((y - (intercept + slope * x)) ** 2))
    rate = -slope if model == "exponential" else slope
    return DecayFit(model, rate, np.exp(intercept), (t[0], t[-1]), resid)
