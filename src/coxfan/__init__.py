"""Exact computations with rational fans, graded coordinate rings, and
the module/sheaf correspondence on the associated toric schemes."""

from .intlat import (
    INFINITE,
    AbelianGroup,
    GroupElement,
    IntMatrix,
    cokernel_presentation,
    hermite_row_basis,
    smith_normal_form,
)
from .polyfan import (
    Cone,
    Fan,
    FanInvalid,
    FanProperties,
    build_fan,
    dual_cone,
    fan_properties,
    hilbert_basis,
    validate_fan,
)
from .grading import (
    GradingData,
    PicardGroup,
    SubgroupB,
    build_grading,
    classify_subgroup,
    degree_fiber,
    picard_group,
    subgroup_of_whole_group,
)
from .cox import (
    BaseRingFlags,
    CoxRingData,
    LocalChart,
    build_cox,
    gamma_is_iso,
    is_positively_graded,
    local_chart,
    strongly_graded_at,
)
from .gradmod import (
    GradedModulePresentation,
    GradedSubmodule,
    degree_component,
    free_module,
    is_torsion,
    quotient_by_monomial_ideal,
    saturate_submodule,
    submodule_membership,
)
from .sheaf import (
    ChartSubmoduleFamily,
    LocalModuleWindow,
    SheafCoverPresentation,
    Unstabilized,
    global_sections_degree,
    is_zero_sheaf,
    lift_finite_type,
    sheafify,
    xi_forward,
    xi_preimage,
)
from .schemeprops import PropertyReport, scheme_property_report

__version__ = "0.1.0"
