"""Survival and activation rates that make a constant-population,
death-replacement ageing process settle on a target age distribution.

The library solves the inverse steady-state problem in closed form:

* ``model1``: survival rates for monotone non-increasing targets;
* ``model2``: joint survival and activation rates for targets whose groups
  stay within 1/ALPHA_MIN of every earlier group, and, for the rest, for
  the nearest target that does (``model2.nearest_reachable``).

The original method's tools for targets beyond that ratio stay available:
a bounded differential-evolution search (``model2.optimize``, dithered
best/1/bin; ``DEConfig`` sets its population size, budget and seed) and a
plateau-then-decay surrogate handed back to model 1 (``curvefit``).
``simulator`` validates any parameterisation with a finite agent population,
``pipeline`` cascades the closed forms over whole datasets, and ``dataio`` /
``cli`` cover CSV ingestion, parameter files and the command line.
"""

import logging

__version__ = "0.1.0"

logging.getLogger("agedist").addHandler(logging.NullHandler())

from . import curvefit, dataio, model1, model2, pipeline, simulator  # noqa: E402
from .curvefit import CurveFitResult, CurveParams, fit  # noqa: E402
from .distributions import (  # noqa: E402
    ALPHA_MIN,
    ActivationVector,
    AgeDistribution,
    Classification,
    ModelKind,
    ModelParams,
    SurvivalVector,
    classify,
    mean_absolute_error,
    normalize,
    wasserstein,
)
from .dataio import emit_params, ingest_csv, load_params  # noqa: E402
from .errors import AgedistError  # noqa: E402
from .model1 import FeasibleInterval, InfeasibleReport, feasibility, solve, steady_state  # noqa: E402
from .model2 import DEConfig, Model2Solution, optimize, steady_state2  # noqa: E402
from .pipeline import PipelineReport, Route, run_dataset, select_and_solve  # noqa: E402
from .simulator import SimConfig, SimResult, run  # noqa: E402

__all__ = [
    "__version__",
    "ALPHA_MIN",
    "ActivationVector",
    "AgeDistribution",
    "AgedistError",
    "Classification",
    "CurveFitResult",
    "CurveParams",
    "DEConfig",
    "FeasibleInterval",
    "InfeasibleReport",
    "Model2Solution",
    "ModelKind",
    "ModelParams",
    "PipelineReport",
    "Route",
    "SimConfig",
    "SimResult",
    "SurvivalVector",
    "classify",
    "curvefit",
    "dataio",
    "emit_params",
    "feasibility",
    "fit",
    "ingest_csv",
    "load_params",
    "mean_absolute_error",
    "model1",
    "model2",
    "normalize",
    "optimize",
    "pipeline",
    "run",
    "run_dataset",
    "select_and_solve",
    "simulator",
    "solve",
    "steady_state",
    "steady_state2",
    "wasserstein",
]
