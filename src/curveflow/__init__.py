"""Curvature-guided flow matching on 2D toy densities.

Learned nonlinear interpolant schedules between data and noise, trained
with a flow-matching loss plus a robust curvature regularizer, with
rectified flow as the zero-residual special case.
"""

from .datagen import (DatasetSpec, export_csv, generate, generate_split,
                      sample_noise)
from .engine import (ParameterSet, Tensor, backward, evaluate_with_gradients,
                     finite_difference_gradient)
from .losses import (LossReport, curve_fm_loss, determinant_integral,
                     determinant_profile, robust_curvature_loss)
from .metrics import (cross_magnitude, curvature, energy_distance,
                      schedule_diagnostics, sliced_wasserstein)
from .sampling import SolverConfig, integrate, sample_batch
from .schedules import (CoefficientSchedule, DerivativeGrid, LinearSchedule,
                        NeuralSchedule, PolynomialSchedule, TrigSchedule,
                        grid_derivatives, make_schedule,
                        pointwise_derivatives)
from .training import (OptimizerState, TrainConfig, adamw_step, lr_at,
                       sample_timestep, train)
from .velocity import VelocityField

__version__ = "0.1.0"
