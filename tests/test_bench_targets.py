"""The traced benchmark run (``bench/run.py --trace 1``) wraps piag's
functions by rebinding names in the modules that call them.  A refactor that
renames or removes one of those names would break the traced run, so every
``(module, name)`` that ``bench/spans.py`` lists must resolve to a callable,
and a traced solve must count its refreshes and leave every name as it was.
"""

import importlib.util
import os

import numpy as np

from piag import DelaySchedule, SolverConfig, solver
from piag.problems import make_quadratic_l1

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench", "spans.py")


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    pairs = [(owner, attr) for _, owners, _ in _spans_module().targets()
             for owner, attr in owners]
    assert pairs
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in pairs
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_traced_solve_counts_refreshes_and_restores_every_name():
    spans = _spans_module()
    originals = [(owner, attr, getattr(owner, attr))
                 for _, owners, _ in spans.targets() for owner, attr in owners]
    problem = make_quadratic_l1(3, 4, seed=2, lam=0.1)
    configs = [SolverConfig(alpha="auto_lemma2", schedule=schedule, x0=np.zeros(4),
                            max_iters=40, prox_residual_tol=0.0)
               for schedule in (DelaySchedule("cyclic", tau=2, block=2), DelaySchedule("none"))]
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = solver.solve(problem, configs[0])
        reference = solver.reference_fbs(problem, configs[1])
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)

    tally = spans.tally(tracer.take())
    assert traced.iterations == reference.iterations == 40
    assert tally["loop:iterations"] == 80
    assert tally["delay.refresh:calls"] == traced.iterations
    assert tally["delay.refresh:info"] == 2 * traced.iterations  # block 2 per refresh
    assert tally["delay.table_init:info"] == 3
    assert tally["solver.step:calls"] == traced.iterations
