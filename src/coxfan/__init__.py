"""Exact computations with rational fans, graded coordinate rings, and
the module/sheaf correspondence on the associated toric schemes.

A layer loads on first use: ``from coxfan import build_fan`` imports
``coxfan.polyfan`` and the layers under it, not the whole package."""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "intlat": "INFINITE AbelianGroup GroupElement cokernel_presentation "
    "hermite_row_basis smith_normal_form",
    "polyfan": "Cone Fan FanInvalid FanProperties build_fan dual_cone fan_properties "
    "hilbert_basis validate_fan",
    "grading": "GradingData PicardGroup SubgroupB build_grading classify_subgroup "
    "degree_fiber picard_group subgroup_of_whole_group",
    "cox": "BaseRingFlags CoxRingData LocalChart build_cox gamma_is_iso "
    "is_positively_graded local_chart strongly_graded_at",
    "gradmod": "GradedModulePresentation GradedSubmodule degree_component free_module "
    "is_torsion quotient_by_monomial_ideal saturate_submodule submodule_membership",
    "sheaf": "ChartSubmoduleFamily SheafCoverPresentation Unstabilized "
    "global_sections_degree is_zero_sheaf lift_finite_type sheafify xi_forward xi_preimage",
    "schemeprops": "PropertyReport scheme_property_report",
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names.split()}
_LAYERS = frozenset(_EXPORTS) | {"groeb", "ratlin"}


def __getattr__(name):
    """A public name from the layer that defines it, or a layer itself."""
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if name in _LAYERS:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_HOME) | _LAYERS)
