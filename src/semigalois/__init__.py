"""Exact Galois machinery for finite inverse semigroup actions on finite
commutative rings: construction, the four Galois criteria, and mechanical
verification of the correspondence between full inverse subsemigroups and
separable strong subalgebras, including the zero / groupoid dictionary.
"""

__version__ = "0.1.0"

from .rings import Atom, FiniteRing, RingElement, StructuredIso, Subalgebra
from .semigroups import InverseSemigroup, SubSemigroup, validate_table
from .actions import Action, validate_action

__all__ = [
    "Atom", "FiniteRing", "RingElement", "StructuredIso", "Subalgebra",
    "InverseSemigroup", "SubSemigroup", "validate_table",
    "Action", "validate_action", "__version__",
]
