"""Generalized Gamma functions (p-, q-, k-deformations), their psi
functions, and numerical verification of the associated monotonicity
theorems and sandwich inequalities."""

# the package republishes each module's __all__, which is the public API
from .core_special import *
from .gen_gamma import *
from .inequality_engine import *

__version__ = "0.1.0"
