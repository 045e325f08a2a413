"""Exact class numbers of hereditary orders in definite central simple
algebras over global function fields."""

from .algebra import AlgebraSpec, Place, constant_field_degree, validate
from .basefield import (BaseField, constant_extension, pic_order,
                        zeta_at_negative)
from .classnum import (class_number, class_number_report, embedding_count,
                       prime_degree_class_number, selfcheck,
                       total_class_number_genera, transfer_check,
                       weight_class_numbers)
from .massform import mass_hereditary
from .omega import enumerate_omega, strip_counts
from .orders import (OrderSpec, local_unit_index, maximal_order,
                     normalize_invariant)
from .theta import omega_size, theta

__all__ = [
    "AlgebraSpec", "BaseField", "OrderSpec", "Place",
    "class_number", "class_number_report",
    "constant_extension", "constant_field_degree", "embedding_count",
    "enumerate_omega", "local_unit_index", "mass_hereditary",
    "maximal_order", "normalize_invariant", "omega_size", "pic_order",
    "prime_degree_class_number", "selfcheck", "strip_counts", "theta",
    "total_class_number_genera", "transfer_check", "validate",
    "weight_class_numbers", "zeta_at_negative",
]
