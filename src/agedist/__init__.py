"""Survival and activation rates that make a constant-population,
death-replacement ageing process settle on a target age distribution.

The library solves the inverse steady-state problem in closed form:

* ``model1``: survival rates for monotone non-increasing targets;
* ``model2``: joint survival and activation rates for targets whose groups
  stay within 1/ALPHA_MIN of every earlier group, and, for the rest, for
  the nearest target that does (``model2.nearest_reachable``).

The original method's tools for targets beyond that ratio stay available:
a bounded differential-evolution search (``model2.optimize``, dithered
best/1/bin; ``model2.DEConfig`` sets its population size, budget and seed)
and a plateau-then-decay surrogate handed back to model 1 (``curvefit``).
``simulator`` validates any parameterisation with a finite agent population,
``pipeline`` cascades the closed forms over whole datasets, and ``dataio`` /
``cli`` cover CSV ingestion, parameter files and the command line.

The top level holds the README's names and the modules; every other name
is imported from its module.
"""

import logging

__version__ = "0.1.0"

logging.getLogger("agedist").addHandler(logging.NullHandler())

from . import curvefit, dataio, distributions, model1, model2, pipeline, simulator  # noqa: E402
from .curvefit import fit  # noqa: E402
from .distributions import classify, normalize  # noqa: E402
from .errors import AgedistError  # noqa: E402
from .model1 import solve, steady_state  # noqa: E402
from .model2 import optimize  # noqa: E402
from .simulator import SimConfig  # noqa: E402

__all__ = [
    "__version__",
    "AgedistError",
    "SimConfig",
    "classify",
    "curvefit",
    "dataio",
    "distributions",
    "fit",
    "model1",
    "model2",
    "normalize",
    "optimize",
    "pipeline",
    "simulator",
    "solve",
    "steady_state",
]
