"""The five standard test fans, as builders and as the JSON fixtures
shipped in the package's own ``corpus`` folder."""

from __future__ import annotations

import json
from pathlib import Path

from .polyfan import Fan, build_fan

_PACKAGE_CORPUS = Path(__file__).parent / "corpus"

# The shipped fixtures are the single source of the specs.
_SPECS = {
    path.stem: json.loads(path.read_text())
    for path in sorted(_PACKAGE_CORPUS.glob("*.json"))
}

CORPUS_NAMES = tuple(sorted(_SPECS))


def fan_spec(name: str) -> dict:
    return {k: [list(x) for x in v] if isinstance(v, list) else v
            for k, v in _SPECS[name].items()}


def build(name: str) -> Fan:
    spec = _SPECS[name]
    return build_fan(
        spec["rank"],
        [tuple(r) for r in spec["rays"]],
        spec["max_cones"],
    )


def fixture_path(name: str) -> Path:
    return _PACKAGE_CORPUS / f"{name}.json"
