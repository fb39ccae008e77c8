"""Coadjoint orbits of finite algebra groups, M_q invariants of p-groups,
and representation zeta series of products of finite simple groups, all at
brute-force-checkable scale."""

from .algroup import AlgebraGroup
from .bogomod import (MqPresentation, build_mq, frobenius_matrix,
                      hensel_lift_modulus, invariant_factors, mq_order,
                      power_class_layers, predicted_ab_order, verify_filtration)
from .budgets import Budgets, DEFAULT_BUDGETS, budget_scope, parse_budget_config
from .coadjoint import (CensusResult, CharacterTable, character_table,
                        conjecture_probe, fake_degree_identities, orbit_census,
                        orthonormality_check, transitivity_check,
                        verify_induced_matches_orbit)
from .errors import (BudgetError, InternalInconsistencyError, ToolError,
                     ValidationError)
from .ffield import Field, is_prime, make_field
from .grouptab import (FiniteGroupTable, central_quotient, direct_product,
                       parse_group_file, serialize_cayley)
from .nilalg import (NilAlgebra, make_augmentation_ideal, make_unitriangular,
                     make_zero_algebra, parse_algebra_file, serialize_algebra)
from .zetalab import (A1, AbscissaEstimate, DegreeMultiset, FactorSpec,
                      LieTypeSpec, TargetSpec,
                      TruncatedDirichlet, abscissa_estimate, akov_series,
                      dirichlet_product, divisor_tuple_count, l_of_n,
                      min_nontrivial_degree, prg_witness, product_series,
                      sl2_degrees, sl2_tower, synthetic_power_series,
                      target_abscissa_spec)

__version__ = "0.1.0"
