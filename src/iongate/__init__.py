"""Simulation and analysis toolkit for two-ion geometric-phase gates.

The package covers the full chain from pulse schedules to benchmarking:

- :mod:`iongate.schedule`: detuning-ramped (smooth) and Walsh sign-flip
  gate schedules as piecewise closed-form segments.
- :mod:`iongate.semiclassical`: coherent-state displacement trajectories,
  gate angles, and drive calibration.
- :mod:`iongate.filterfn`: mode-frequency-noise filter functions, numeric
  and closed-form, plus noise power spectra.
- :mod:`iongate.quantum`: full propagation of two qubits and a truncated
  motional mode, thermal averaging, calibration and offset scans.
- :mod:`iongate.slerb`: subspace-leakage randomized benchmarking with
  decay fits and bootstrap intervals.
- :mod:`iongate.cli`: config-driven scenario runner with CSV outputs.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, ConvergenceError, DomainError, GridError,
                     ParameterError, TruncationError)
from .filterfn import (DEFAULT_VARIANCES, FilterFunction, PowerLawPsd,
                       SampledPsd, filter_function_numeric,
                       filter_function_walsh_analytic, noise_infidelity_integral)
from .quantum import (BRANCH_EIGENVALUES, SPIN_LABELS, CompositeState,
                      FockConfig, GateOutcome, ThermalEnsemble, branch_factorized_blocks,
                      calibration_scan, gate_eigenbasis, gate_propagator,
                      offset_scan, propagate, thermal_average, thermal_sweep)
from .schedule import (PulseSchedule, Segment, SmoothGateParams, WalshGateParams,
                       build_smooth_schedule, build_walsh_schedule, walsh_function)
from .semiclassical import (BranchTrajectory, adiabaticity_profile, branch_endpoints,
                            calibrate_delta_min, calibrate_omega,
                            gate_angle_adiabatic, gate_angle_exact,
                            perturbative_infidelity, propagate_displacement,
                            spin_variances)
from .slerb import (DecayFit, FullScheduleModel, ParametricModel,
                    SlerbDataset, SlerbSequence, SubspaceClifford,
                    bootstrap_ci, clifford_table, collect_dataset,
                    fit_decays, generate_sequence, mean_gates_per_clifford,
                    simulate_sequence)
