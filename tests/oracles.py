"""Reference implementations that tests compare the package against."""
from dataclasses import replace

import numpy as np

from floqnet.limit_cycle import LimitCycle, _section
from floqnet.network import SIMULATE_INTEGRATOR, CouplingSpec, \
    assemble_coupled_field
from floqnet.ode import IntegratorConfig, _dense_coeffs, _dense_eval, \
    _final_state, _integrate_core, _quartic_row, _refine_crossing, integrate


def expm(m):
    """Matrix exponential by scaling and squaring with a truncated Taylor
    series, the oracle for the Lyapunov-Floquet factor.

    Accurate to ~1e-13 relative for small, moderate-norm matrices; exact
    for the zero matrix.
    """
    a = np.asarray(m)
    dtype = complex if np.iscomplexobj(a) else float
    a = a.astype(dtype)
    n = a.shape[0]
    norm = np.linalg.norm(a, 1)
    if norm == 0.0:
        return np.eye(n, dtype=dtype)
    # Scale so the series argument has 1-norm <= 0.5, then square back.
    s = max(0, int(np.ceil(np.log2(norm / 0.5))))
    x = a / (2.0**s)
    result = np.eye(n, dtype=dtype)
    term = np.eye(n, dtype=dtype)
    for k in range(1, 40):
        term = term @ x / k
        result = result + term
        if np.linalg.norm(term, 1) < 1e-18 * np.linalg.norm(result, 1):
            break
    for _ in range(s):
        result = result @ result
    return result


def sequential_factors(model, lc, kappas, mask=None, cfg=None):
    """The p-leg variational pass that multiple shooting replaced, the
    oracle for :func:`floqnet.floquet.variational_factors`.

    One step sequence carries the cycle state and one variational matrix
    per kappa over the whole period, in p = 16 equal legs, the segments
    of the shooting pass, that each restart the matrices at the identity;
    the cycle state runs on from the anchor through every leg, with the
    scalar field and Jacobian.  Returns the (B, 16, m, m) segment factors
    and the cycle state after one period.
    """
    cfg = cfg or IntegratorConfig()
    m = model.dim
    mm = m * m
    mask = np.ones(m) if mask is None else np.asarray(mask, dtype=float)
    kappas = np.asarray(kappas, dtype=float).ravel()
    p = 16
    shift = kappas[:, None, None] * np.diag(mask)

    def rhs(z):
        x = z[0, :m]
        out = np.empty_like(z)
        out[:, :m] = model.field(x)
        ys = z[:, m:].reshape(-1, m, m)
        out[:, m:] = ((model.jacobian(x) - shift) @ ys).reshape(-1, mm)
        return out

    bounds = np.linspace(0.0, lc.period, p + 1)
    z0 = np.zeros((kappas.size, m + mm))
    z0[:, m:] = np.eye(m).ravel()
    x = lc.anchor.copy()
    factors = np.empty((kappas.size, p, m, m))
    for i in range(p):
        z0[:, :m] = x
        z_end = _final_state(rhs, z0, (0.0, bounds[i + 1] - bounds[i]), cfg)
        x = z_end[0, :m]
        factors[:, i] = z_end[:, m:].reshape(-1, m, m)
    return factors, x


def dense_lf(model, lc, cfg=None):
    """The dense one-row Lyapunov-Floquet pass that shooting with one
    segment per sample replaced, the oracle for
    :func:`floqnet.floquet.lf_decomposition`.

    One integration of a one-row batch from the anchor over the whole
    period carries the cycle state and phi(t, 0); phi(t_k, 0) is read from
    its dense output at the sample times.
    R = log(phi(T, 0)) / T from the eigenbasis of phi(T, 0), and
    P(t_k) = expm(R t_k) @ inv(phi(t_k, 0)) phase by phase with the Taylor
    :func:`expm`.  Returns ``(R, P_samples)``.
    """
    m = model.dim

    def rhs(z):
        x = z[:, :m]
        out = np.empty_like(z)
        out[:, :m] = model.node_field(x)
        out[:, m:] = (model.node_jacobian(x)
                      @ z[:, m:].reshape(-1, m, m)).reshape(-1, m * m)
        return out

    z0 = np.concatenate([lc.anchor, np.eye(m).ravel()])[None]
    traj = integrate(rhs, z0, (0.0, lc.period), cfg)
    phis = traj.eval(lc.times)[:, 0, m:].reshape(-1, m, m)
    w, v = np.linalg.eig(traj.states[-1, 0, m:].reshape(m, m))
    r = (v * np.log(w.astype(complex))) @ np.linalg.inv(v) / lc.period
    p = np.array([expm(r * t) @ np.linalg.inv(phi)
                  for t, phi in zip(lc.times, phis)])
    return r, p


def section_crossings(steps, event):
    """Yield the upward zero-crossings ``(time, state)`` of ``event`` along
    a stream of 1-D integrator steps ``(t, h, y, y_new, k)``, building dense
    coefficients only where one lies: the streamed crossing finder that
    :meth:`floqnet.ode.Trajectory.crossings` replaced, the oracle for
    :func:`floqnet.ode.integrate_with_events`."""
    g_hi = None
    for t, h, y, y_new, k in steps:
        g_lo = float(event(y)) if g_hi is None else g_hi
        g_hi = float(event(y_new))
        if g_lo < 0.0 <= g_hi:
            r = _dense_coeffs(h, y, y_new, k[0], k[6], _quartic_row(h, k))
            tc = _refine_crossing(event, r, t, h)
            yield tc, _dense_eval(r, (tc - t) / h)


def poincare_cycle(model, cfg=None):
    """The Poincare-return search that multiple-shooting Newton replaced,
    the oracle for :func:`floqnet.limit_cycle.find_limit_cycle`.

    The same 20-unit scout from the initial state chooses the same
    section, by the search's own :func:`floqnet.limit_cycle._section`;
    then upward section returns stream at full accuracy, for at most 960
    time units, until at least 8 are in and the last of the final six is
    within 1e-9 (relative) of the first.  (With no settle before the
    scout, a 1e-6 stop leaves the repressilator's mean return gap ~5e-8
    off the period.)  The period is the mean of the last five return
    gaps; the samples come from one integration over a period from the
    last return at 1/100 of the tolerances.
    """
    cfg = cfg or IntegratorConfig()
    relaxed = IntegratorConfig(rel_tol=max(cfg.rel_tol, 1e-7),
                               abs_tol=max(cfg.abs_tol, 1e-9))
    scout = integrate(model.field, model.default_initial, (0.0, 20.0),
                      relaxed)
    coord, level = _section(scout)

    def drift(states):
        first = states[-min(len(states), 6)]
        return np.linalg.norm(states[-1] - first) / np.linalg.norm(first)

    steps = _integrate_core(model.field, scout.states[-1], (0.0, 960.0), cfg)
    t_cross, states = [], []
    for t, state in section_crossings(steps, lambda x: x[coord] - level):
        t_cross.append(t)
        states.append(state)
        if len(states) >= 8 and drift(states) < 1e-9:
            break
    assert len(states) >= 8 and drift(states) < 1e-9, "returns did not agree"
    period = float(np.mean(np.diff(t_cross[-6:])))
    closing = replace(cfg, rel_tol=cfg.rel_tol / 100,
                      abs_tol=cfg.abs_tol / 100)
    one_period = integrate(model.field, states[-1], (0.0, period), closing)
    closure = float(np.linalg.norm(one_period.states[-1] - states[-1])
                    / np.linalg.norm(states[-1]))
    times = np.arange(512) * (period / 512)
    return LimitCycle(period=period, anchor=states[-1], times=times,
                      samples=one_period.eval(times), closure_residual=closure)


def per_node_coupled_field(model, graph, coupling):
    """The per-node loop that the batched network field replaced, the
    oracle for :func:`floqnet.network.assemble_coupled_field`.

    Each right-hand side makes n scalar ``model.field`` calls, one per
    node row, and then adds the coupling term -K G (X * mask).
    """
    n, m = graph.n, model.dim
    mask = np.ones(m) if coupling.mask is None else coupling.mask
    neg_kg = -coupling.K * graph.laplacian

    def coupled(x_flat):
        x = x_flat.reshape(n, m)
        out = np.empty_like(x)
        for i in range(n):
            out[i] = model.field(x[i])
        out += neg_kg @ (x * mask)
        return out.ravel()

    return coupled


def stored_network_states(model, graph, coupling, x0, t_end, cfg=None,
                          output_points=2000):
    """The stored two-phase route that streaming replaced, the oracle for
    :func:`floqnet.network.simulate_network`'s grid.

    Each phase is one whole :func:`integrate`, the K = 0 coupled field
    before activation and the coupled field after it, and the grid is
    evaluated on its :class:`~floqnet.ode.Trajectory`.  Returns the grid
    times, the (output_points, n*m) states and the accepted step count of
    each phase.  ``cfg`` defaults to the simulation's own default,
    :data:`~floqnet.network.SIMULATE_INTEGRATOR`.
    """
    cfg = cfg or SIMULATE_INTEGRATOR
    x0 = np.asarray(x0, dtype=float).ravel()
    t_on = float(coupling.activation_time)
    uncoupled = assemble_coupled_field(
        model, graph, CouplingSpec(K=0.0, mask=coupling.mask))
    coupled = assemble_coupled_field(model, graph, coupling)
    times = np.linspace(0.0, float(t_end), output_points)
    on = times >= t_on
    states = np.empty((output_points, x0.size))
    x_on, steps = x0, []
    if t_on > 0:
        phase1 = integrate(uncoupled, x0, (0.0, t_on), cfg)
        states[~on] = phase1.eval(times[~on])
        x_on = phase1.states[-1].copy()
        steps.append(phase1.times.size - 1)
    phase2 = integrate(coupled, x_on, (t_on, float(t_end)), cfg)
    states[on] = phase2.eval(times[on])
    steps.append(phase2.times.size - 1)
    return times, states, steps
