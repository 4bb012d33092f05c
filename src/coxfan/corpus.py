"""The five standard test fans, as builders and as shipped JSON fixtures.

The fixture directory defaults to the package's own ``corpus`` folder and
can be overridden with the ``COXFAN_CORPUS_DIR`` environment variable.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .polyfan import Fan, build_fan

CORPUS_ENV_VAR = "COXFAN_CORPUS_DIR"
_PACKAGE_CORPUS = Path(__file__).parent / "corpus"

# The shipped fixtures are the single source of the specs;
# ``COXFAN_CORPUS_DIR`` only moves ``fixture_path``.
_SPECS = {
    path.stem: json.loads(path.read_text())
    for path in sorted(_PACKAGE_CORPUS.glob("*.json"))
}

CORPUS_NAMES = tuple(sorted(_SPECS))


def corpus_dir() -> Path:
    override = os.environ.get(CORPUS_ENV_VAR)
    if override:
        return Path(override)
    return _PACKAGE_CORPUS


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
    return corpus_dir() / f"{name}.json"
