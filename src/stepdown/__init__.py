"""Multistage step-down multiple hypothesis testing with FWE control.

The package provides fixed-sample and group-sequential step-down
procedures, calibration of the critical-value boundaries they test
against, a three-endpoint trial simulator with a mergeable Monte Carlo
harness, and a sequential rule classifying a normal mean into ordered
intervals, implemented two independent ways.  It exports every name in
its modules' ``__all__``.
"""

from . import boundary, core, harness, paulson, procedures, trial
from .boundary import *
from .core import *
from .harness import *
from .paulson import *
from .procedures import *
from .trial import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += boundary.__all__
__all__ += core.__all__
__all__ += harness.__all__
__all__ += paulson.__all__
__all__ += procedures.__all__
__all__ += trial.__all__
