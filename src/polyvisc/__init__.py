"""Finite-strain viscoelasticity for high-temperature polyimide resins.

A purely mechanical natural-configuration constitutive kernel: 3-D
evolution of the stress-free configuration, uniaxial creep/recovery
simulation, the stored energy and dissipation behind it, and
derivative-free fitting of the material parameters to experimental creep
curves.
"""

from .material import MaterialParams
from .tensors import SymTensor3

__version__ = "0.1.0"

__all__ = [
    "MaterialParams",
    "SymTensor3",
    "__version__",
]
