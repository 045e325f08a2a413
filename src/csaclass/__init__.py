"""Exact class numbers of hereditary orders in definite central simple
algebras over global function fields."""

from .algebra import (AlgebraSpec, Place, centralizer_spec,
                      constant_field_degree, validate)
from .basefield import (BaseField, constant_extension, pic_order,
                        zeta_at_negative)
from .classnum import (class_number, class_number_report, embedding_count,
                       prime_degree_class_number, total_class_number_genera,
                       transfer_check, weight_class_numbers)
from .massform import mass_hereditary, mass_maximal
from .omega import enumerate_omega, strip_counts
from .orders import (OrderSpec, local_unit_index, maximal_order,
                     normalize_invariant)
from .theta import omega_size, theta, theta_enum

__all__ = [
    "AlgebraSpec", "BaseField", "OrderSpec", "Place",
    "centralizer_spec", "class_number", "class_number_report",
    "constant_extension", "constant_field_degree", "embedding_count",
    "enumerate_omega", "local_unit_index", "mass_hereditary",
    "mass_maximal", "maximal_order",
    "normalize_invariant", "omega_size", "pic_order",
    "prime_degree_class_number", "strip_counts", "theta", "theta_enum",
    "total_class_number_genera", "transfer_check", "validate",
    "weight_class_numbers", "zeta_at_negative",
]
