"""Exact arithmetic for cusps, genera and defining equations of the modular
curves attached to principal congruence subgroups, with the full
determination of the level-8 curve y^8 = x^2 (x - 1)(x + 1) and its
canonical model in P^4."""

from .arith import (Cyclotomic, GaussRational, divisors, factorize, is_prime,
                    mult_n, n3, solve_unit_congruence)
from .cusps import (cusp_action, cusp_canonical, enumerate_cusps,
                    find_equivalence_witness, gamma_qn_member, h_formula,
                    h_n_formula, tau_orbits, width, width_bruteforce,
                    width_distribution)
from .curve import (INF, Monomial, MoebiusMap, SemiHyperellipticCurve,
                    curve_genus, differential_order, holomorphic_basis,
                    moebius_lift_check, octic_model, ramification_profile,
                    rotation_at_branch, solve_branch_constant,
                    verify_isomorphism_numeric)
from .equation import (RotationNumber, SemiHyperellipticEquation,
                       build_equation, equation_string, exponent_from_rotation,
                       normalize_with_convention, rotation_from_exponent,
                       rotation_number)
from .genus import (euler_genus, genus_prime_quotient, genus_q, genus_qn,
                    hurwitz_deficiency, is_semihyperelliptic_level)
from .psl import (center, element_order, enumerate_psl, maps_between_cusps,
                  max_element_order, r_formula, r_n_formula, type_classify)
from .canonical import (elimination_solve, embed_point, preserves_ideal,
                        quadric_residuals, sigma_matrix, sigma_preserves_ideal)

__version__ = "0.1.0"
