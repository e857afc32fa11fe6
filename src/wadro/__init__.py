"""Model-risk sensitivities under (adapted) Wasserstein ambiguity balls."""

from .measure import (Binning, GridMeasure, MeasureError, ModelSpec, build_model,
                      canonical_test_measure, cond_exp_1, from_csv, marginal_2,
                      quantile_bins, sign_copy_measure, to_csv)
from .criterion import (Criterion, CriterionError, GradientField, StoppingRule,
                        american_put, exercise_mass, gradient_field,
                        linear_criterion, preset, stopping_rule, value, vega)
from .sensitivity import (CONSTRAINT_SETS, CondConstraint, ConstraintSet, MeanConstraint,
                          Metric, PointState, SensitivityError, SensitivityReport, W2, W2AD,
                          adapted_gradient, marginal_value_closed_form,
                          martingale_psi, n_map, report_tables, report_to_json,
                          solve_foc)
from .fredholm import (FredholmError, FredholmOperator, build_operator,
                       contraction_norm, solve)
from .oracle import (Coupling, DiscreteBallProblem, FeasibleFamily, OracleError,
                     bicausal_distance, classical_distance,
                     default_target_support, dro_lp, family_check,
                     feasible_family, oracle_report, slope_estimate)

__version__ = "0.1.0"
