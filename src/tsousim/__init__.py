"""Exact path simulation of finite-variation tempered-stable OU processes.

Two families are covered: processes whose *stationary law* is a one-sided
classical tempered stable (CTS) law, and processes whose *driving noise* is
a CTS process.  Both transition laws decompose into a rescaled CTS draw plus
a compound-Poisson sum of gamma-mixture jumps, which the samplers implement,
together with closed-form cumulant oracles and a Monte Carlo harness.

The package republishes the ``__all__`` of ``rand_core``, ``cts_ou``,
``ou_cts`` and ``harness``, so each module's list is the only list of its
public names.  The Levy-triplet oracles are imported from
``tsousim.levy_core``: no sampling path uses them, so ``import tsousim``
does not load that module; ``validate_suite`` loads it when it runs.
"""

from .rand_core import *
from .cts_ou import *
from .ou_cts import *
from .harness import *

__version__ = "0.1.0"
