"""JSON schemas for every object the command line touches.

Scalars are strings ("a/b", "c/d*i", "a/b+c/d*i"), series are a coeff
list plus an order, matrices carry one order for all entries.  An
operator's coefficient cells may also be JSON integers.  Dumps are
deterministic: sorted keys, two-space indent, trailing newline.  Every
*_to_obj / *_from_obj pair round-trips exactly.  All JSON input, the
operator's included, is decoded here, by one decoder; load_text reads
any kind and load_operator reads the operator commands' input.
"""
from __future__ import annotations

import json
import re
from typing import Any

from . import picard_fuchs, vshs
from .amodel import InstantonTable
from .linalg import Matrix
from .scalars import Scalar, format_scalar, parse_scalar
from .series import Series, SeriesMatrix

# the largest truncation order: the limit of --order and of every stored
# order, since a Series pads to its order; the benchmark runs order 32
MAX_ORDER = 256


def scalar_to_str(x: Scalar) -> str:
    return format_scalar(x)


def scalar_from_str(s: str) -> Scalar:
    """parse_scalar for stored input: a malformed string is a ParseError."""
    try:
        return parse_scalar(s)
    except ValueError as exc:
        raise picard_fuchs.ParseError(str(exc)) from None


def _int(value: Any, field: str) -> int:
    """A stored integer field.  Only a JSON integer is one: int() would
    truncate 3.5 and accept true or "7"."""
    if type(value) is not int:
        raise picard_fuchs.ParseError(
            f"field {field!r} must be an integer, not "
            f"{type(value).__name__}")
    return value


def _order(value: Any) -> int:
    """A stored truncation order, in 0 .. MAX_ORDER."""
    order = _int(value, "order")
    if not 0 <= order <= MAX_ORDER:
        raise picard_fuchs.ParseError(
            f"field 'order' must lie in 0..MAX_ORDER = {MAX_ORDER}")
    return order


def _list(value: Any, field: str) -> list:
    """A stored JSON array.  A string iterates too, so "12" would be read
    as the list ["1", "2"]."""
    if type(value) is not list:
        raise picard_fuchs.ParseError(
            f"field {field!r} must be a list, not {type(value).__name__}")
    return value


def _coeffs(value: Any, order: int, field: str) -> list[Scalar]:
    """The coefficient list of a stored series of the given order: a
    coefficient beyond the order would be dropped by Series."""
    cells = _list(value, field)
    if len(cells) > order:
        raise picard_fuchs.ParseError(
            f"field {field!r} holds {len(cells)} coefficients, more than "
            f"the order {order}")
    return [scalar_from_str(c) for c in cells]


def _int_key(key: str, field: str) -> int:
    """An integer stored as a JSON object key, such as "-1"."""
    if not re.fullmatch(r"-?[0-9]{1,18}", key):
        raise picard_fuchs.ParseError(
            f"the keys of {field!r} must be integers")
    return int(key)


def series_to_obj(s: Series) -> dict[str, Any]:
    coeffs = [format_scalar(c) for c in s.coeffs]
    while coeffs and coeffs[-1] == "0":
        coeffs.pop()
    return {"order": s.order, "coeffs": coeffs}


def series_from_obj(obj: dict[str, Any]) -> Series:
    order = _order(obj["order"])
    return Series(_coeffs(obj["coeffs"], order, "coeffs"), order)


def matrix_to_obj(m: SeriesMatrix) -> dict[str, Any]:
    entries = [[series_to_obj(m.entry(i, j))["coeffs"]
                for j in range(m.cols)] for i in range(m.rows)]
    return {"rows": m.rows, "cols": m.cols, "order": m.order,
            "entries": entries}


def matrix_from_obj(obj: dict[str, Any]) -> SeriesMatrix:
    order = _order(obj["order"])
    rows = [_list(row, "entries") for row in _list(obj["entries"], "entries")]
    shape = (_int(obj["rows"], "rows"), _int(obj["cols"], "cols"))
    if [len(row) for row in rows] != [shape[1]] * shape[0]:
        raise picard_fuchs.ParseError(
            f"field 'entries' is not the {shape[0]} x {shape[1]} matrix "
            "that 'rows' and 'cols' state")
    return SeriesMatrix([[Series(_coeffs(cell, order, "entries"), order)
                          for cell in row] for row in rows])


def scalar_matrix_to_obj(m: Matrix) -> list[list[str]]:
    return [[format_scalar(x) for x in row] for row in m]


def scalar_matrix_from_obj(obj: Any, field: str) -> Matrix:
    return [[scalar_from_str(x) for x in _list(row, field)]
            for row in _list(obj, field)]


def dn_to_obj(d: vshs.DnObject) -> dict[str, Any]:
    return {
        "kind": "dn_object",
        "n": d.n,
        "graded_dims": {str(k): v for k, v in sorted(d.graded_dims.items())},
        "pairing0": scalar_matrix_to_obj(d.pairing0_matrix()),
        "a_series": matrix_to_obj(d.a_series),
    }


def dn_from_obj(obj: dict[str, Any]) -> vshs.DnObject:
    dims = {_int_key(k, "graded_dims"): _int(v, "graded_dims")
            for k, v in obj["graded_dims"].items()}
    return vshs.DnObject(
        n=_int(obj["n"], "n"), graded_dims=dims,
        pairing0=scalar_matrix_from_obj(obj["pairing0"], "pairing0"),
        a_series=matrix_from_obj(obj["a_series"]))


def rees_to_obj(r: vshs.ReesModule) -> dict[str, Any]:
    return {
        "kind": "rees_module",
        "degrees": list(r.degrees),
        "parity": r.parity,
        "order": r.order,
        "conn_u": {str(p): matrix_to_obj(m)
                   for p, m in sorted(r.conn_u.items())},
        "pairing_u": {str(p): matrix_to_obj(m)
                      for p, m in sorted(r.pairing_u.items())},
    }


def rees_from_obj(obj: dict[str, Any]) -> vshs.ReesModule:
    return vshs.ReesModule(
        degrees=[_int(k, "degrees") for k in obj["degrees"]],
        conn_u={_int_key(p, "conn_u"): matrix_from_obj(m)
                for p, m in obj["conn_u"].items()},
        pairing_u={_int_key(p, "pairing_u"): matrix_from_obj(m)
                   for p, m in obj["pairing_u"].items()},
        parity=_int(obj["parity"], "parity"),
        order=_order(obj["order"]))


def geometric_to_obj(g: vshs.GeometricVHS) -> dict[str, Any]:
    return {
        "kind": "geometric_vhs",
        "levels2": list(g.levels2),
        "parity": g.parity,
        "conn": matrix_to_obj(g.conn),
        "pairing": None if g.pairing is None else matrix_to_obj(g.pairing),
    }


def geometric_from_obj(obj: dict[str, Any]) -> vshs.GeometricVHS:
    pairing = obj.get("pairing")
    return vshs.GeometricVHS(
        conn=matrix_from_obj(obj["conn"]),
        levels2=[_int(l, "levels2") for l in obj["levels2"]],
        pairing=None if pairing is None else matrix_from_obj(pairing),
        parity=_int(obj["parity"], "parity"))


def pf_to_obj(op: picard_fuchs.PFOperator) -> dict[str, Any]:
    return {
        "kind": "pf_operator",
        "order": op.order_theta,
        "coeffs": [[format_scalar(x) for x in c] for c in op.coeffs],
    }


def pf_from_obj(obj: dict[str, Any]) -> picard_fuchs.PFOperator:
    """coeffs[j] lists the q-coefficients of c_j, each a scalar string or
    a JSON integer, never a float (rounded already) or a boolean; a row
    of one coefficient may be that one cell."""
    rows = [row if type(row) is list else [row]
            for row in _list(obj["coeffs"], "coeffs")]
    if any(type(c) not in (str, int) for row in rows for c in row):
        raise picard_fuchs.ParseError(
            "field 'coeffs' must hold strings and integers only")
    if "order" in obj and _int(obj["order"], "order") != len(rows) - 1:
        raise picard_fuchs.ParseError(
            "stated order disagrees with coefficients")
    return picard_fuchs.PFOperator(
        [[scalar_from_str(c) if type(c) is str else Scalar(c) for c in row]
         for row in rows])


def table_to_obj(t: InstantonTable) -> dict[str, Any]:
    return {
        "kind": "instanton_table",
        "max_degree": t.max_degree,
        "entries": {str(d): format_scalar(v)
                    for d, v in sorted(t.entries.items())},
        "suspect": list(t.suspect),
    }


def table_from_obj(obj: dict[str, Any]) -> InstantonTable:
    return InstantonTable(
        max_degree=_int(obj["max_degree"], "max_degree"),
        entries={_int_key(d, "entries"): scalar_from_str(v)
                 for d, v in obj["entries"].items()})


def report_to_obj(r: vshs.NormalFormReport) -> dict[str, Any]:
    return {
        "kind": "normal_form_report",
        "mirror_coordinate": series_to_obj(r.mirror_coordinate),
        "gauge": matrix_to_obj(r.gauge),
        "volume_index": r.dn.volume_index,
        "dn": dn_to_obj(r.dn),
    }


def report_from_obj(obj: dict[str, Any]) -> vshs.NormalFormReport:
    report = vshs.NormalFormReport(
        mirror_coordinate=series_from_obj(obj["mirror_coordinate"]),
        gauge=matrix_from_obj(obj["gauge"]),
        dn=dn_from_obj(obj["dn"]))
    index = report.dn.volume_index  # stored for readers, derived from dn
    if _int(obj["volume_index"], "volume_index") != index:
        raise picard_fuchs.ParseError(
            f"field 'volume_index' must be {index}, the volume vector's "
            "index in dn")
    return report


def dumps(obj: dict[str, Any]) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


_LOADERS = {
    "dn_object": dn_from_obj,
    "rees_module": rees_from_obj,
    "geometric_vhs": geometric_from_obj,
    "pf_operator": pf_from_obj,
    "instanton_table": table_from_obj,
    "normal_form_report": report_from_obj,
}


def _decode(text: str) -> dict[str, Any] | None:
    """The one JSON decoder: the object that text holds, or None when
    the text is not JSON (an operator expression).  Every way JSON text
    can fail to decode is a ParseError."""
    stripped = text.strip()
    if not stripped.startswith("{"):
        return None
    try:
        return json.loads(stripped)
    except RecursionError:
        raise picard_fuchs.ParseError("JSON nested too deeply") from None
    except ValueError as exc:  # also an integer over the digit limit
        raise picard_fuchs.ParseError(f"invalid JSON: {exc}") from None


def load_operator(text: str) -> picard_fuchs.PFOperator:
    """An operator from its JSON, whatever its kind field, or from the
    expression language."""
    data = _decode(text)
    if data is None:
        return picard_fuchs.parse_pf(text)
    if "coeffs" not in data:
        raise picard_fuchs.ParseError("operator JSON needs a 'coeffs' field")
    return pf_from_obj(data)


def load_text(text: str):
    """Any known kind from its JSON text, where an object with no kind
    and a 'coeffs' field is an operator; text that is not JSON is read
    as an operator expression."""
    data = _decode(text)
    if data is None:
        return picard_fuchs.parse_pf(text)
    kind = data.get("kind", "pf_operator" if "coeffs" in data else None)
    if not (isinstance(kind, str) and kind in _LOADERS):
        raise picard_fuchs.ParseError(f"unknown object kind {kind!r}")
    try:
        return _LOADERS[kind](data)
    except KeyError as exc:
        raise picard_fuchs.ParseError(
            f"{kind} is missing the field {exc}") from exc
    except (TypeError, AttributeError, IndexError) as exc:
        raise picard_fuchs.ParseError(f"malformed {kind}: {exc}") from exc
