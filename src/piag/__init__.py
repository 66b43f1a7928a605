"""Incremental aggregated proximal gradient solver with convergence
diagnostics for nonconvex composite minimization."""

from .delay import DelaySchedule, GradientTable, next_refresh_set
from .diagnostics import (InequalityReport, RateFit, characteristic_root,
                          check_delayed_recursion_rate,
                          check_perturbed_contraction,
                          check_step_recursion_coefficient,
                          check_sufficient_descent, check_summability,
                          delay_window_sums, fit_rlinear_rate,
                          squared_step_norms, trace_from_iterates)
from .model import (NonsmoothTerm, Problem, QuadraticComponent, SmoothComponent,
                    eval_F, eval_f, grad_f, load_problem, quadratic_component,
                    save_problem, smoothness_totals)
from .problems import (ReferenceSolution, ReferenceUnavailableError,
                       dist_to_stationary, fit_error_bound_constant,
                       make_quadratic_box, make_quadratic_l1,
                       reference_solution)
from .prox import check_prox_scaling_monotonicity, prox, prox_residual, soft_threshold
from .solver import (DivergenceError, SolverConfig, TheoryConstants, Trace,
                     TraceRecord, piag_step, rate_constants, reference_fbs,
                     resolve_stepsize, solve, stepsize_threshold)

__version__ = "0.1.0"

__all__ = [
    "DelaySchedule", "DivergenceError", "GradientTable",
    "InequalityReport", "NonsmoothTerm", "Problem", "QuadraticComponent",
    "RateFit", "ReferenceSolution", "ReferenceUnavailableError",
    "SmoothComponent", "SolverConfig", "TheoryConstants", "Trace",
    "TraceRecord", "characteristic_root", "check_delayed_recursion_rate",
    "check_perturbed_contraction", "check_prox_scaling_monotonicity",
    "check_step_recursion_coefficient", "check_sufficient_descent",
    "check_summability", "delay_window_sums",
    "dist_to_stationary", "eval_F", "eval_f", "fit_error_bound_constant",
    "fit_rlinear_rate", "grad_f", "load_problem", "make_quadratic_box",
    "make_quadratic_l1", "next_refresh_set", "piag_step", "prox",
    "prox_residual", "quadratic_component", "rate_constants",
    "reference_fbs", "reference_solution", "resolve_stepsize",
    "save_problem", "smoothness_totals", "soft_threshold", "solve",
    "squared_step_norms", "stepsize_threshold", "trace_from_iterates",
]
