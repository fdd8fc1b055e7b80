"""Deterministic report serialization.

Reports are plain trees of dict/list/str/int/float/bool/None.  The
serializer sorts object keys and prints every float with 17 significant
digits, so identical inputs produce byte-identical files; non-finite
numbers are rejected outright, which enforces the report contract that
every number in a report is finite.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict

from .polycore import Poly, poly_to_json
from .search import SearchState
from .smale import QuotientWitness, ScalarReport


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite number in report: {x!r}")
    return format(x, ".17g")


def dumps(obj) -> str:
    """Serialize a report tree deterministically (sorted keys, 17 digits)."""
    pieces: list[str] = []
    _write(obj, pieces)
    return "".join(pieces)


def _write(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(repr(obj))
    elif isinstance(obj, float):
        out.append(_format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        first = True
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            if not first:
                out.append(",")
            first = False
            out.append(json.dumps(key))
            out.append(":")
            _write(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _write(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} in a report")


def complex_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def witness_to_json(wit: QuotientWitness) -> dict:
    return {
        "w": complex_pair(wit.w),
        "quotient": wit.quotient,
        "ratio": wit.ratio,
    }


def scalar_report_to_json(rep: ScalarReport) -> dict:
    return {
        "degree": rep.degree,
        "s_estimate": rep.s_estimate,
        "s_estimate_kind": "lower bound estimate",
        "ds_estimate": rep.ds_estimate,
        "ds_estimate_kind": "upper bound estimate",
        "s0": rep.s0,
        "ds0": rep.ds0,
        "witnesses": [witness_to_json(w) for w in rep.witnesses],
        "bound_checks": [asdict(c) for c in rep.bound_checks],
        "s_argmax_z": None if rep.s_argmax_z is None else complex_pair(rep.s_argmax_z),
        "ds_argmin_z": None
        if rep.ds_argmin_z is None
        else complex_pair(rep.ds_argmin_z),
        "all_theorems_pass": rep.all_theorems_pass,
    }


def search_state_to_json(state: SearchState) -> dict:
    return {
        "params": list(state.params),
        "objective": state.objective,
        "best_poly": poly_to_json(state.best_poly),
        "best_poly_coeffs": [complex_pair(c) for c in state.best_poly.coeffs],
        "restarts_done": state.restarts_done,
        "restart_table": [asdict(r) for r in state.table],
        "polished": state.polished,
    }


def poly_payload(p: Poly) -> dict:
    out = poly_to_json(p)
    out["degree"] = p.degree
    return out
