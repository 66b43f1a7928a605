"""Incremental aggregated proximal gradient solver with convergence
diagnostics for nonconvex composite minimization.  A public name is imported
with its module when first read (PEP 562), so ``import piag`` loads no numpy."""

import importlib
import sys
import types

__version__ = "0.1.0"

_NAMES = {
    "delay": "DelaySchedule GradientTable next_refresh_set",
    "diagnostics": "InequalityReport RateFit characteristic_root check_delayed_recursion_rate "
                   "check_perturbed_contraction check_step_recursion_coefficient "
                   "check_sufficient_descent check_summability delay_window_sums "
                   "fit_rlinear_rate squared_step_norms trace_from_iterates",
    "model": "NonsmoothTerm Problem QuadraticComponent SmoothComponent eval_F eval_f grad_f "
             "load_problem quadratic_component save_problem smoothness_totals",
    "problems": "ReferenceSolution ReferenceUnavailableError dist_to_stationary "
                "fit_error_bound_constant make_quadratic_box make_quadratic_l1 reference_solution",
    "prox": "check_prox_scaling_monotonicity prox prox_residual soft_threshold",
    "solver": "DivergenceError SolverConfig TheoryConstants Trace TraceRecord piag_step "
              "rate_constants reference_fbs resolve_stepsize solve stepsize_threshold",
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    def __setattr__(self, name, value):  # importing piag.prox must not hide the function
        if not (name == "prox" and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
