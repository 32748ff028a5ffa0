"""Rational-map approximations to matings of critically preperiodic quadratics."""

from .angles import Angle, OrbitInfo, reduce
from .combinatorics import (
    EssentialClass,
    Mark,
    MarkKind,
    Schedule,
    Side,
    SideAngle,
    base_schedule,
    essential_classes,
    fsr_valid,
    is_jordan,
    jordan_defect,
    postcritical_count,
    pullback_schedule,
)
from .engine import (
    CurveSample,
    DiscreteCurve,
    IterateOptions,
    IterationRecord,
    RunReport,
    init_embedding,
    iterate,
    prune,
    pullback_curve,
    read_critical_values,
    structural_gates,
)
from .errors import (
    AngleError,
    BranchTrackingError,
    NumericError,
    QuadmateError,
    SerializationError,
    StructuralError,
)
from .lamination import (
    LandingPartition,
    Leaf,
    LimbId,
    colanding_class,
    critical_leaf,
    landing_partition,
    limb_of,
    mateable,
    pullback_lamination,
    same_landing,
    wake,
)
from .ratmap import (
    NormalizedQuadratic,
    SpherePoint,
    chordal,
    from_critical_values,
    from_sphere,
    stereographic,
)
from .render import DEFAULT_VIEWS, render_sphere, render_views
from .serialize import dump_curve, format_report, load_curve

__version__ = "0.1.0"
