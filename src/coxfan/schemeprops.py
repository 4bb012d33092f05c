"""Scheme-level property report for the toric scheme of a fan.

Verdicts are inferred symbolically from fan geometry plus declared base
ring flags; ring-theoretic hypotheses are never verified here, only
propagated.  Every verdict carries a provenance tag naming the rule it
came from, and conditional verdicts name the missing hypothesis.
"""

from __future__ import annotations

from ._record import Record
from .cox import BaseRingFlags
from .polyfan import FanProperties

HOLDS = "holds"
FAILS = "fails"
CONDITIONAL = "conditional"

# rule registry: provenance tags for every verdict the report can emit
RULES = {
    "structural": "toric schemes are separated, quasicompact, flat, finitely presented",
    "faithfully-flat": "faithfully flat iff the fan is nonempty or the base ring is zero",
    "base-or-empty": "holds iff the base ring has the property or the fan is empty",
    "base-and-nonempty": "holds iff the base ring has the property and the fan is nonempty",
    "proper-iff-complete": "proper iff the fan is complete, or the fan is empty, or the base ring is zero",
    "coherent-regular-base": "structure sheaf coherent when the fan is regular and the base ring is stably coherent",
}


class Verdict(Record):
    __slots__ = (
        "status",  # HOLDS / FAILS / CONDITIONAL
        "rule",  # key into RULES
        "condition",  # missing hypothesis, for conditional verdicts
    )
    _defaults = {"condition": ""}

    def as_dict(self):
        out = {"verdict": self.status, "provenance": RULES[self.rule]}
        if self.condition:
            out["condition"] = self.condition
        return out


class PropertyReport(Record):
    __slots__ = ("verdicts",)  # property name -> Verdict

    def as_dict(self):
        return {
            name: self.verdicts[name].as_dict() for name in sorted(self.verdicts)
        }


def _base_or_empty(empty, has_property, flag_name):
    if empty or has_property:
        return Verdict(HOLDS, "base-or-empty")
    return Verdict(CONDITIONAL, "base-or-empty", condition=flag_name)


def scheme_property_report(props: FanProperties, flags: BaseRingFlags) -> PropertyReport:
    """Verdict table for the toric scheme of a fan over a flagged base ring."""
    empty = props.is_empty
    zero = flags.zero
    field = flags.field and not zero
    v = {}
    for name in ("separated", "quasicompact", "flat", "finite_presentation"):
        v[name] = Verdict(HOLDS, "structural")
    if not empty or zero:
        v["faithfully_flat"] = Verdict(HOLDS, "faithfully-flat")
    else:
        v["faithfully_flat"] = Verdict(FAILS, "faithfully-flat")
    v["reduced"] = _base_or_empty(empty, field or (flags.reduced and not zero) or zero, "reduced")
    v["noetherian"] = _base_or_empty(empty, field or flags.noetherian or zero, "noetherian")
    v["normal"] = _base_or_empty(empty, field, "normal")
    v["connected"] = _base_or_empty(empty, field, "connected")
    for name in ("irreducible", "integral"):
        if field and not empty:
            v[name] = Verdict(HOLDS, "base-and-nonempty")
        elif zero or empty:
            v[name] = Verdict(FAILS, "base-and-nonempty")
        else:
            v[name] = Verdict(CONDITIONAL, "base-and-nonempty", condition="field")
    if props.is_complete or empty or zero:
        v["proper"] = Verdict(HOLDS, "proper-iff-complete")
    else:
        v["proper"] = Verdict(FAILS, "proper-iff-complete")
    if props.is_regular and flags.stably_coherent:
        v["coherent_structure_sheaf"] = Verdict(HOLDS, "coherent-regular-base")
    else:
        missing = []
        if not props.is_regular:
            missing.append("fan regular")
        if not flags.stably_coherent:
            missing.append("stably_coherent")
        v["coherent_structure_sheaf"] = Verdict(
            CONDITIONAL, "coherent-regular-base", condition=", ".join(missing)
        )
    return PropertyReport(verdicts=v)
