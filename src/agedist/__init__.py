"""Survival and activation rates that make a constant-population,
death-replacement ageing process settle on a target age distribution.

``distributions`` holds the process's stationary law, which every other
module reads; the library inverts it in closed form:

* ``model1``: survival rates for monotone non-increasing targets;
* ``model2``: joint survival and activation rates, one set per active mass
  in the target's ``model2.band`` (``model2.member``; ``model2.solve`` takes
  its upper edge), and, where the band is empty, for the nearest target
  whose band is not (``model2.nearest_reachable``).

The original method's tools for targets whose band is empty stay available:
a bounded differential-evolution search (``model2.optimize``, dithered
best/1/bin; ``DEConfig`` sets its population size, budget and seed)
and a plateau-then-decay surrogate handed back to model 1 (``curvefit``).
``simulator`` validates any parameterisation with a finite agent population,
``pipeline`` cascades the closed forms over whole datasets, and ``dataio`` /
``cli`` cover CSV ingestion, parameter files and the command line.

The top level holds the README's names and the modules; every other name
is imported from its module. Its ``solve`` is the station, ``pipeline.solve``
(a ``Solution`` for any AgeDistribution; ``model1.solve`` gives a monotone
target's bare ``SurvivalVector``), and its ``steady_state`` is the law,
``distributions.stationary_distribution``.
"""

import logging

__version__ = "0.1.0"

logging.getLogger("agedist").addHandler(logging.NullHandler())

from . import curvefit, dataio, distributions, model1, model2, pipeline, simulator  # noqa: E402
from .curvefit import fit  # noqa: E402
from .distributions import classify, normalize  # noqa: E402
from .distributions import stationary_distribution as steady_state  # noqa: E402
from .errors import AgedistError  # noqa: E402
from .model2 import DEConfig, optimize  # noqa: E402
from .pipeline import solve  # noqa: E402
from .simulator import SimConfig  # noqa: E402

__all__ = [
    "__version__",
    "AgedistError",
    "DEConfig",
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
