"""Nonsmooth landscape analysis of f(u) = 0.5 ||u u^T - ustar ustar^T||_1."""

from .core import (
    EPS_ZERO,
    SubdifferentialModel,
    objective,
    residual_pattern,
    subdifferential_model,
    subgradient_select,
)
from .dynamics import (
    ConjectureReport,
    GridSpec,
    StepSchedule,
    Trajectory,
    conjecture_probe,
    flow_field,
    run_subgradient,
)
from .firstorder import (
    CriticalConeDescriptor,
    critical_cone,
    directional_derivative,
    growth_check,
    sharpness_coefficient,
)
from .lpcore import EPS_LP, NumericalFailureError
from .secondorder import (
    PointClassification,
    classify_point,
    escape_curvature,
    second_subderivative,
)
from .stationarity import (
    StationarityVerdict,
    distance_to_ground_truths,
    expected_gaussian_separation,
    gaussian_separation,
    is_stationary_closed_form,
    is_stationary_lp,
    project_to_spurious_set,
)
from .tilting import (
    certify_sharp_local_min_1d,
    certify_sharp_local_min_tilted_f,
    eval_ex41,
    eval_ex42,
    tilt_divergence_probe_ex41,
)

__version__ = "0.1.0"
