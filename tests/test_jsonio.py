"""Serialization roundtrips for every on-disk kind."""
import json
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from vshstools import jsonio, vshs
from vshstools.amodel import InstantonTable
from vshstools.picard_fuchs import ParseError, PFOperator, parse_pf
from vshstools.scalars import Scalar
from vshstools.series import Series, SeriesMatrix

from genutil import rand_scalar, random_dn, random_rees

DATA = Path(__file__).resolve().parent.parent / "data"


def test_scalar_string_roundtrip():
    rng = Random(51)
    for _ in range(50):
        x = rand_scalar(rng, 9)
        assert jsonio.scalar_from_str(jsonio.scalar_to_str(x)) == x


def test_series_roundtrip_trims_trailing_zeros():
    s = Series([Scalar(1), Scalar(0), Scalar(2), Scalar(0)], 4)
    obj = jsonio.series_to_obj(s)
    assert obj["coeffs"][-1] != "0"
    assert jsonio.series_from_obj(obj) == s
    zero = Series.zero(6)
    assert jsonio.series_from_obj(jsonio.series_to_obj(zero)) == zero


def test_stored_coefficients_are_a_list():
    with pytest.raises(ParseError,
                       match=r"^field 'coeffs' must be a list, not str$"):
        jsonio.series_from_obj({"order": 3, "coeffs": "12"})


def test_matrix_roundtrip():
    rng = Random(52)
    entries = [[Series([rand_scalar(rng, 4) for _ in range(5)], 5)
                for _ in range(3)] for _ in range(2)]
    m = SeriesMatrix(entries)
    back = jsonio.matrix_from_obj(jsonio.matrix_to_obj(m))
    assert back == m


def test_dn_roundtrip():
    rng = Random(53)
    d = random_dn(rng, 3, order=6, max_dim=2)
    back = jsonio.dn_from_obj(jsonio.dn_to_obj(d))
    assert back == d


def test_rees_roundtrip():
    rng = Random(54)
    r = random_rees(rng, order=6)
    back = jsonio.rees_from_obj(jsonio.rees_to_obj(r))
    assert back == r


def test_geometric_roundtrip():
    rng = Random(55)
    r = random_rees(rng, order=6)
    g = vshs.rees_to_geometric(r)
    back = jsonio.geometric_from_obj(jsonio.geometric_to_obj(g))
    assert back.levels2 == g.levels2
    assert back.conn == g.conn
    assert back.pairing == g.pairing
    assert back.parity == g.parity


def test_pf_operator_roundtrip():
    op = parse_pf((DATA / "quintic.pf.txt").read_text())
    text = jsonio.dumps(jsonio.pf_to_obj(op))
    assert jsonio.load_text(text) == op


def test_table_roundtrip():
    t = InstantonTable(max_degree=5, entries={
        1: Scalar(2875), 3: Scalar(Fraction(1, 3))})
    obj = jsonio.table_to_obj(t)
    assert obj["suspect"] == [3]
    assert jsonio.table_from_obj(obj) == t


def test_report_roundtrip():
    rng = Random(56)
    r = random_rees(rng, order=6)
    g = vshs.rees_to_geometric(r)
    rep = vshs.to_normal_form(g)
    obj = jsonio.report_to_obj(rep)
    back = jsonio.report_from_obj(obj)
    assert back.mirror_coordinate == rep.mirror_coordinate
    assert back.dn == rep.dn


def test_dumps_is_deterministic():
    rng = Random(57)
    d = random_dn(rng, 2, order=6, max_dim=2)
    a = jsonio.dumps(jsonio.dn_to_obj(d))
    b = jsonio.dumps(jsonio.dn_to_obj(
        jsonio.dn_from_obj(json.loads(a))))
    assert a == b
    assert a.endswith("\n")


def test_load_text_dispatch():
    rng = Random(58)
    d = random_dn(rng, 2, order=6, max_dim=1)
    assert jsonio.load_text(jsonio.dumps(jsonio.dn_to_obj(d))) == d
    r = random_rees(rng, order=6)
    assert jsonio.load_text(jsonio.dumps(jsonio.rees_to_obj(r))) == r
    op = jsonio.load_text("theta^2 - q")
    assert isinstance(op, PFOperator)
    with pytest.raises(ValueError):
        jsonio.load_text(json.dumps({"kind": "mystery"}))


def test_data_fixtures_load():
    for name in ("d3-a", "d3-b", "d3-c"):
        d = jsonio.load_text((DATA / f"{name}.dn.json").read_text())
        r = jsonio.load_text((DATA / f"{name}.rees.json").read_text())
        assert isinstance(d, vshs.DnObject)
        assert isinstance(r, vshs.ReesModule)
        assert vshs.from_normal_form(d) == r
