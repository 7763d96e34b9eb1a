"""Reference implementations that tests compare the package against."""
import numpy as np


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
