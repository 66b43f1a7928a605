"""Independent oracles used across the test suite.

These deliberately avoid the library's own code paths: finite differences
for gradients, golden-section and grid scans for proximal operators, power
iteration for spectral constants, and plain-loop summation for objective
values.
"""

import math
import os
import subprocess
import sys

import numpy as np


def central_diff_grad(func, x, rel_step=1e-5):
    """Central finite-difference gradient with step ``rel_step * (1 + ||x||)``."""
    x = np.asarray(x, dtype=float)
    h = rel_step * (1.0 + np.linalg.norm(x))
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (func(x + e) - func(x - e)) / (2.0 * h)
    return g


def golden_section(fun, lo, hi, tol=1e-10):
    """Minimize a unimodal scalar function on [lo, hi].

    Runs in 50-digit arithmetic so function-value comparisons stay resolvable
    well below the float64 sqrt(eps) floor.
    """
    import mpmath

    with mpmath.workdps(50):
        invphi = (mpmath.sqrt(5) - 1) / 2
        a, b = mpmath.mpf(lo), mpmath.mpf(hi)
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc, fd = fun(c), fun(d)
        while b - a > tol:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = fun(c)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = fun(d)
        return float((a + b) / 2)


def prox_scalar_oracle(h_scalar, anchor, scale, domain=None, bracket=50.0, tol=1e-10):
    """Scalar prox via golden-section on h(x) + (x - anchor)^2 / (2 scale).

    ``domain`` restricts the search interval (for indicator-type terms the
    penalized objective is not unimodal, so search the feasible set instead).
    """
    def objective(x):
        return h_scalar(x) + (x - anchor) ** 2 / (2.0 * scale)

    lo, hi = domain if domain is not None else (anchor - bracket, anchor + bracket)
    return golden_section(objective, lo, hi, tol=tol)


def grid_argmin(fun_vec, lo, hi, step):
    """Argmin of a vectorized scalar function over a uniform grid."""
    xs = np.arange(lo, hi + step / 2, step)
    return float(xs[np.argmin(fun_vec(xs))])


def power_iteration_psd(M, iters=20000, tol=1e-14, seed=0):
    """Largest eigenvalue of a PSD matrix by plain power iteration."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(M.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = M @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v_new = w / norm
        lam_new = float(v_new @ (M @ v_new))
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return lam_new
        v, lam = v_new, lam_new
    return lam


def spectral_norm_oracle(A, seed=0):
    """max |eigenvalue| of a symmetric matrix via power iteration on A^2."""
    return math.sqrt(max(power_iteration_psd(A @ A, seed=seed), 0.0))


def min_eigenvalue_oracle(A, seed=0):
    """Smallest eigenvalue via a shifted power iteration."""
    m = spectral_norm_oracle(A, seed=seed)
    shifted = m * np.eye(A.shape[0]) - A  # PSD with top eigenvalue m - lambda_min
    return m - power_iteration_psd(shifted, seed=seed + 1)


def quad_value_loops(A, b, const, x):
    """Quadratic value by explicit double loops (independent of numpy matmul)."""
    d = len(x)
    total = const
    for i in range(d):
        total += b[i] * x[i]
        for j in range(d):
            total += 0.5 * A[i][j] * x[i] * x[j]
    return total


def gen_perturbed_contraction_instance(rng, length=60, force_boundary=False):
    """Random admissible instance of the contraction-with-memory recursion.

    Draws (a, b, window) then picks c at or below the budget that makes the
    decay condition hold, and saturates the recursion with equality:
    V_{k+1} = a V_k - b w_k + c * sum(w[k-window:k+1]).  Perturbations are
    capped by a V_k / b, which keeps every V_k nonnegative.
    """
    a = rng.uniform(0.05, 0.95)
    b = rng.uniform(0.1, 5.0)
    window = int(rng.integers(1, 9))
    c_budget = b * a**window * (1.0 - a) / (1.0 - a ** (window + 1))
    # back off one part in 1e12 at the boundary so roundoff in re-evaluating
    # the budget cannot flip the condition
    c = c_budget * (1.0 - 1e-12) if force_boundary else rng.uniform(0.0, 1.0) * c_budget
    v = [rng.uniform(0.1, 10.0)]
    w = []
    for k in range(length):
        w_k = rng.uniform(0.0, 1.0) * a * v[k] / b
        w.append(w_k)
        lo = max(0, k - window)
        v.append(a * v[k] - b * w_k + c * sum(w[lo:k + 1]))
    return a, b, c, window, v, w


def gen_delayed_recursion_sequence(rng, length=300):
    """Random instance of the delayed averaging recursion, saturated with
    equality: a_k = b0 q^k + (c/tau) (a_{k-1} + ... + a_{k-tau}).

    q is redrawn while it falls close to the characteristic root, since near
    resonance the finite-sample tail rate exceeds the asymptotic one.
    """
    from piag import characteristic_root

    tau = int(rng.integers(1, 7))
    c = rng.uniform(0.05, 0.95)
    p = characteristic_root(c, tau)
    while True:
        q = rng.uniform(0.05, 0.95)
        if abs(q - p) >= 0.05:
            break
    b0 = rng.uniform(0.1, 10.0)
    seq = [b0 * rng.uniform(0.5, 1.5) for _ in range(tau)]
    for k in range(tau, length):
        seq.append(b0 * q**k + (c / tau) * sum(seq[k - tau:k]))
    return b0, q, c, tau, seq


def simulate_max_staleness(schedule, n_components, iters):
    """Track the worst staleness-at-use over a simulated run of a schedule.

    Mirrors the table's age bookkeeping without evaluating any gradients.
    """
    from piag import next_refresh_set

    ages = np.zeros(n_components, dtype=int)
    worst = 0
    for k in range(iters):
        refresh = next_refresh_set(schedule, k, n_components, ages)
        if k > 0:
            ages += 1
        ages[sorted(refresh)] = 0
        worst = max(worst, int(ages.max()))
    return worst


class KillsTheWorker(np.ndarray):
    """An array that ends the process unpickling it, as a crashed worker would."""

    def __reduce_ex__(self, protocol):
        return os._exit, (1,)


def with_last_matrix_as(problem, matrix_class):
    """``problem`` with the last matrix of its stack viewed as ``matrix_class``,
    so that the problem writer fails only after the earlier components."""
    A, b, c = problem.quadratic_stack
    object.__setattr__(problem, "quadratic_stack", ([*A[:-1], A[-1].view(matrix_class)], b, c))
    return problem


def run_python(args, cwd=None) -> subprocess.CompletedProcess:
    """A fresh interpreter run on ``args``, with this checkout's ``src`` first
    on its path; stdout and stderr are captured as text."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)
