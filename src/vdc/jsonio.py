"""Canonical JSON rendering for reports.

One rule set for every emitter: exact rationals become {"num", "den"}
string pairs (never floats), dataclasses serialize by field, numpy values
become plain Python, dict keys become strings, and the final dump sorts
keys — so two semantically equal reports render byte-identically no matter
how they were assembled.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction

import numpy as np


def frac_dict(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator)}


def mixed_str(x: Fraction) -> str:
    """Render 27780/1069 as "25 + 1055/1069" (whole part split off)."""
    sign = "-" if x < 0 else ""
    x = abs(x)
    whole, rest = divmod(x.numerator, x.denominator)
    if rest == 0:
        return f"{sign}{whole}"
    if whole == 0:
        return f"{sign}{rest}/{x.denominator}"
    return f"{sign}{whole} + {rest}/{x.denominator}"


def to_jsonable(obj):
    """Recursively convert a report object into JSON-dumpable data."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, Fraction):
        return frac_dict(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()] \
            if obj.dtype == object else obj.tolist()
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"no JSON rendering for {type(obj).__name__}")


def render_json(payload) -> str:
    return json.dumps(to_jsonable(payload), indent=2, sort_keys=True) + "\n"
