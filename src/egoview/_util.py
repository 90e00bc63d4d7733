"""Small shared helpers: half-up rounding, config hashing, token splitting,
the finite-number test for decoded JSON, the view-stride rule."""

from __future__ import annotations

import hashlib
import json
import math
import re
from decimal import ROUND_HALF_UP, Decimal
from typing import Mapping

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def round1(value: float) -> float:
    """Round to one decimal place, half away from zero (table precision)."""
    return float(Decimal(repr(value)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def percent(count: int, total: int) -> float:
    return 0.0 if total == 0 else round1(100.0 * count / total)


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric tokens, stopwords kept."""
    return _TOKEN_RE.findall(text.lower())


def finite_number(value) -> bool:
    """True when `value` is a finite JSON number: not a bool, a string, null,
    a container, NaN, an infinity or an integer too large for a float."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def config_hash(payload: Mapping) -> str:
    """Stable short hash of semantic configuration (never includes paths)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def check_stride(stride: int) -> int:
    """`stride`, which takes every stride-th view, if it is at least 1."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    return stride
