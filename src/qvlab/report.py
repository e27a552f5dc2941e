"""Structured check reports with deterministic, diffable serialization.

Every inequality checker returns a CheckReport: the inputs it saw, the
numbers it computed, the resolutions they were computed at, and a verdict.
Serialization is canonical (sorted keys, shortest round-trip float repr,
no timestamps) so identical runs produce byte-identical files; writes go
through a temp file plus rename so readers never see partial output.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, field, asdict

SCHEMA_VERSION = "2"

VERDICTS = ("pass", "fail", "diagnostic")


@dataclass
class CheckReport:
    """Result of one inequality or profile check.

    quantities holds the computed numbers (lhs, rhs, ratios, constants);
    resolutions records the quadrature parameters every number was computed
    at; provenance carries seed, package version, and config hash so the
    verdict is reproducible from the stored inputs alone.
    """

    name: str
    field_spec: str
    params: dict
    quantities: dict
    resolutions: dict
    verdict: str
    provenance: dict = field(default_factory=dict)
    notes: tuple = ()

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError("verdict must be one of %r, got %r" % (VERDICTS, self.verdict))
        self.notes = tuple(self.notes)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["format"] = "qvlab-report/" + SCHEMA_VERSION
        d["notes"] = list(self.notes)
        return d

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    def write(self, path: str) -> None:
        atomic_write_text(path, self.to_json())

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _canonize(obj):
    """Make an object JSON-serializable with stable float text.

    Floats are emitted through repr (shortest round-trip form), which is
    identical across runs and platforms for identical doubles. Non-finite
    floats become explicit strings so the files stay valid strict JSON.
    """
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, dict):
        return {str(k): _canonize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonize(v) for v in obj]
    if hasattr(obj, "item") and callable(obj.item) and getattr(obj, "shape", None) == ():
        return _canonize(obj.item())
    if hasattr(obj, "tolist"):
        return _canonize(obj.tolist())
    return obj


def canonical_json(obj) -> str:
    return json.dumps(_canonize(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a same-directory temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def config_hash(config: dict) -> str:
    """Short stable hash of an effective configuration dictionary."""
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:12]
