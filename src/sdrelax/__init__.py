"""Numerical relaxation toolkit for piecewise-affine fields with jump sets.

The package measures bulk and interfacial energies of deformations whose
gradient and jump structure are explicit, builds staircase approximations
that trade gradient for jumps at prescribed rates, estimates relaxed
energy densities through cell problems, and cross-checks the estimates
against closed trace formulas. A two-phase optimal-design extension adds
phase-dependent densities, a pair density on shared interfaces, and a
perimeter term.
"""

from .cell import (CellSolution, OptimizerBudget, estimate_relaxed_bulk,
                   estimate_relaxed_surface, frame_grid_minimum,
                   realize_bulk_competitor, realize_surface_competitor)
from .core import (Frame, as_matrix, as_unit_vector, as_vector,
                   decompose_by_frame, disarrangement_tensor,
                   frame_angles_from_matrix, frame_cost, frame_matrix,
                   identity_frame, relaxed_bulk_abs, relaxed_bulk_minus,
                   relaxed_bulk_plus, relaxed_surface_abs,
                   relaxed_surface_minus, relaxed_surface_plus)
from .energy import (BulkDensity, DensitySet, InterfacePairDensity,
                     SurfaceDensity, bulk_density, check_bulk_growth,
                     check_interface_axioms, check_surface_axioms, energy,
                     interface_density, surface_density)
from .errors import (ConfigError, DensityError, DimensionMismatchError,
                     DomainError, MeshMismatchError, NonUnitNormalError,
                     NumericalFailureError, SandwichViolationError,
                     SdrelaxError)
from .fields import (AccommodationReport, Box, Clamp, Facet, GridField,
                     GridMesh, SequenceReport, StepFamily, StepField,
                     StructuredDeformation, average_gradient, broken_ramp,
                     broken_ramp_deformation, deck_of_cards,
                     deck_of_cards_deformation, evaluate, field_from_dict,
                     field_to_dict, jump_competitor, jump_measure,
                     l1_distance, load_field, random_structured_deformation,
                     save_field, sequence_report, singular_total_variation,
                     staircase_sequence, total_derivative, two_valued_datum,
                     validate_accommodation)
from .geometry import corner_cube, unit_cube
from .optdesign import (DesignBoundaryData, DesignDensityTables, PhaseField,
                        design_energy, estimate_interface_cell,
                        estimate_phase_relaxed_bulk, perimeter,
                        relaxed_design_energy)
from .relaxed import (PlusMinusReport, RelaxedDensityPair, SandwichEntry,
                      SandwichReport, disarrangement_trace_integral,
                      estimated_pair, exact_pair, jump_trace_integral,
                      relaxed_energy, verify_plus_minus_identity,
                      verify_trace_sandwich)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
