"""Reference implementations that tests compare the package against."""
import numpy as np

from floqnet.ode import IntegratorConfig, _final_state, integrate


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
