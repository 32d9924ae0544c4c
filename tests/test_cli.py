"""End-to-end tests of the command line, run in process."""
import contextlib
import hashlib
import io
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vshstools import cli, jsonio, picard_fuchs, vshs
from vshstools.amodel import instantons_from_g
from vshstools.scalars import Scalar
from vshstools.series import Series

DATA = Path(__file__).resolve().parent.parent / "data"
QUINTIC = str(DATA / "quintic.pf.txt")


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pipeline_json_quintic(capsys):
    code, out, _ = run(capsys, ["pipeline", "--input", QUINTIC,
                                "--order", "8", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "pipeline_report"
    entries = payload["instantons"]["entries"]
    assert entries["1"] == "2875"
    assert entries["2"] == "609250"
    mirror = payload["normal_form"]["mirror_coordinate"]["coeffs"]
    assert mirror[:3] == ["0", "1", "770"]
    yuk = payload["yukawa"]["coeffs"]
    assert yuk[0] == "5" and yuk[1] == "2875"


def test_pipeline_json_deterministic(capsys):
    argv = ["pipeline", "--input", QUINTIC, "--order", "6",
            "--format", "json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    assert first.endswith("\n")


def test_pipeline_table_format(capsys):
    code, out, _ = run(capsys, ["pipeline", "--input", QUINTIC,
                                "--order", "6"])
    assert code == 0
    assert "# mirror map Q(q) mod q^6" in out
    assert "# Yukawa coupling mod Q^6" in out
    assert "# instanton numbers through degree" in out
    assert "2875" in out and "609250" in out


def test_pipeline_sign_flip(capsys):
    code, out, _ = run(capsys, ["pipeline", "--input", QUINTIC,
                                "--order", "6", "--sign", "-1",
                                "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    mirror = payload["normal_form"]["mirror_coordinate"]["coeffs"]
    assert mirror[1] == "-1"
    assert payload["instantons"]["entries"]["1"] == "-2875"


def test_mirror_map_both_routes(capsys):
    code, out, _ = run(capsys, ["mirror-map", "--input", QUINTIC,
                                "--order", "5", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "mirror_map"
    assert payload["series"]["coeffs"] == ["0", "1", "770", "1014275",
                                           "1703916750"]

    code, out, _ = run(capsys, ["mirror-map", "--input", QUINTIC,
                                "--order", "4"])
    assert code == 0
    assert "both routes agree" in out
    assert "770" in out


def test_yukawa_decimal_annotations(capsys):
    code, out, _ = run(capsys, ["yukawa", "--input", QUINTIC,
                                "--order", "3", "--volume", "1/2",
                                "--decimal", "3"])
    assert code == 0
    assert "575/2  (~ 287.500)" in out
    # integer volume leaves plain integers, no approximations
    code, out, _ = run(capsys, ["yukawa", "--input", QUINTIC,
                                "--order", "3", "--decimal", "3"])
    assert code == 0
    assert "(~" not in out
    # a Gaussian value is annotated part by part
    code, out, _ = run(capsys, ["yukawa", "--input", QUINTIC,
                                "--order", "4", "--volume", "1/2+i",
                                "--decimal", "3"])
    assert code == 0
    assert "\nQ^1    575/2+575*i  (~ 287.500+575.000i)\n" in out


def test_instantons_subcommand(capsys):
    code, out, _ = run(capsys, ["instantons", "--input", QUINTIC,
                                "--order", "7", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"]["3"] == "317206375"
    assert payload["suspect"] == []

    code, out, _ = run(capsys, ["instantons", "--input", QUINTIC,
                                "--order", "5"])
    assert code == 0
    assert "d=1" in out and "2875" in out


def test_normal_form_report(capsys):
    code, out, _ = run(capsys, ["normal-form", "--input", QUINTIC,
                                "--order", "5"])
    assert code == 0
    assert "n = 3, degrees" in out
    assert "volume index 0" in out
    assert "# pairing at q = 0" in out
    assert "-5*i" in out and "5*i" in out
    assert "middle connection entry g(Q)" in out
    assert "575" in out


def test_normal_form_heading_from_dimension_five(tmp_path, capsys):
    # from n = 5 on g(Q) is the Yukawa series over the volume, a product
    # of several connection entries, not one middle entry
    path = tmp_path / "five.pf.txt"
    path.write_text("theta^6 - q*(theta+1)^6\n")
    code, out, _ = run(capsys, ["normal-form", "--input", str(path),
                                "--order", "4"])
    assert code == 0
    assert "n = 5, degrees" in out
    assert "# Yukawa coupling over the volume mod Q^4" in out
    assert "middle connection entry" not in out


def test_check_pf_operator(capsys):
    code, out, _ = run(capsys, ["check", "--input", QUINTIC])
    assert code == 0
    assert out.strip() == "pf_operator: order 4, maximally unipotent: ok"


def test_check_not_unipotent(capsys):
    code, out, _ = run(capsys, ["check", "--input",
                                str(DATA / "not-unipotent.pf.txt")])
    assert code == 1
    assert out.startswith("FAIL:")


def test_check_dn_object(capsys):
    code, out, _ = run(capsys, ["check", "--input",
                                str(DATA / "d3-a.dn.json")])
    assert code == 0
    assert out.startswith("dn_object: n = 3")
    assert out.strip().endswith("ok")


def _d3_faulty(*faults):
    """d3-a.dn.json as JSON with the named faults put in.  A pairing of
    degree 0 pairs V_k with V_-k only, so unequal dimensions there always
    bring a degenerate pairing with them."""
    obj = json.loads((DATA / "d3-a.dn.json").read_text())
    rows = obj["a_series"]["entries"]
    if "rank" in faults:        # A(0) kills V_-1 -> V_1
        rows[2][1] = []
    if "unit" in faults:        # 1 + q on the unit column
        rows[1][0] = ["-2/3", "1"]
    if "degenerate" in faults:
        obj["pairing0"] = [["0"] * 4 for _ in range(4)]
    if "asymmetric" in faults:  # <e_0, e_3> = 7, <e_3, e_0> = -2
        obj["pairing0"][0][3] = "7"
    if "lopsided" in faults:    # V_1 two-dimensional, V_-1 one
        obj["graded_dims"]["1"] = 2
        for row in rows:
            row.insert(3, [])
        rows.insert(3, [[], [], [], [], []])
        rows[3][1] = ["1"]
        obj["a_series"]["rows"] = obj["a_series"]["cols"] = 5
        for row in obj["pairing0"]:
            row.insert(3, "0")
        obj["pairing0"].insert(3, ["0"] * 5)
    return obj


@pytest.mark.parametrize("faults, message", [
    (("rank",), "A(0)^1 is not an isomorphism V_-1 -> V_1"),
    (("unit",), "the V_{-n} -> V_{-n+2} component of A must be constant"),
    (("degenerate",), "pairing must be nondegenerate"),
    (("asymmetric",),
     "pairing symmetry <a,b> = (-1)^n <b,a> fails at (0,3)"),
], ids=["rank-deficient", "q-dependent-unit", "degenerate-pairing",
        "asymmetric-pairing"])
def test_check_pins_one_dn_object_fault(faults, message, tmp_path, capsys):
    path = tmp_path / "faulty.dn.json"
    path.write_text(json.dumps(_d3_faulty(*faults)))
    code, out, err = run(capsys, ["check", "--input", str(path)])
    assert (code, out, err) == (1, f"FAIL: {message}\n", "")


@pytest.mark.parametrize("faults, message", [
    (("lopsided",), "graded dimensions at degrees 1 and -1 differ"),
    (("rank", "degenerate"), "A(0)^1 is not an isomorphism V_-1 -> V_1"),
], ids=["unequal-dims", "rank-deficient-and-degenerate"])
def test_check_pins_hard_lefschetz_with_a_degenerate_pairing(
        faults, message, tmp_path, capsys):
    """Hard Lefschetz is checked before nondegeneracy of the pairing."""
    path = tmp_path / "faulty.dn.json"
    path.write_text(json.dumps(_d3_faulty(*faults)))
    code, out, err = run(capsys, ["check", "--input", str(path)])
    assert (code, out, err) == (1, f"FAIL: {message}\n", "")


@pytest.mark.parametrize("index, expected", [
    (None, (0, "NormalFormReport: parsed: ok\n", "")),
    (7, (2, "", "error: field 'volume_index' must be 0, the volume "
         "vector's index in dn\n")),
], ids=["as-written", "volume-index-7"])
def test_check_normal_form_report(index, expected, tmp_path, capsys):
    """The stored volume_index is the one dn derives, or the report is
    refused."""
    code, out, _ = run(capsys, ["normal-form", "--input", QUINTIC,
                                "--order", "4", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    if index is not None:
        obj["volume_index"] = index
    path = tmp_path / "report.json"
    path.write_text(json.dumps(obj))
    assert run(capsys, ["check", "--input", str(path)]) == expected


def test_check_rees_module(capsys):
    code, out, _ = run(capsys, ["check", "--input",
                                str(DATA / "d3-a.rees.json")])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines
    assert all(line.endswith("ok") for line in lines)


def test_check_geometric_vhs(tmp_path, capsys):
    dn = jsonio.load_text((DATA / "d3-a.dn.json").read_text())
    geometric = vshs.rees_to_geometric(vshs.from_normal_form(dn))
    path = tmp_path / "geo.json"
    path.write_text(jsonio.dumps(jsonio.geometric_to_obj(geometric)))
    code, out, _ = run(capsys, ["check", "--input", str(path)])
    assert code == 0
    assert out.startswith("geometric_vhs: rank 4")


def test_check_instanton_table(tmp_path, capsys):
    g = Series([Scalar(1), Scalar(Fraction(1, 2))], 6)
    bad = instantons_from_g(g, Scalar(1))
    path = tmp_path / "bad.table.json"
    path.write_text(jsonio.dumps(jsonio.table_to_obj(bad)))
    code, out, _ = run(capsys, ["check", "--input", str(path)])
    assert code == 1
    assert "non-integral" in out

    code, good, _ = run(capsys, ["instantons", "--input", QUINTIC,
                                 "--order", "6", "--format", "json"])
    assert code == 0
    path = tmp_path / "good.table.json"
    path.write_text(good)
    code, out, _ = run(capsys, ["check", "--input", str(path)])
    assert code == 0
    assert out.strip().endswith("ok")


@pytest.mark.parametrize("max_degree, entries, message", [
    (3, {"0": "1"}, "instanton degrees must lie in 1..3; found 0"),
    (3, {"2": "5", "4": "1"}, "instanton degrees must lie in 1..3; found 4"),
    (-1, {}, "max_degree must be nonnegative; found -1"),
], ids=["degree-zero", "above-max-degree", "negative-max-degree"])
def test_check_instanton_table_degree_range(max_degree, entries, message,
                                            tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"kind": "instanton_table",
                                "max_degree": max_degree,
                                "entries": entries}))
    code, out, err = run(capsys, ["check", "--input", str(path)])
    assert (code, out, err) == (1, f"FAIL: {message}\n", "")


JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                        st.integers(-5, 5), st.floats(allow_nan=False),
                        st.sampled_from(["1", "-2/3", "1/0", "i", "abc"]))


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(-3, 6), JSON_LEAVES),
       st.one_of(st.dictionaries(st.one_of(st.integers(-3, 8).map(str),
                                           st.text(max_size=3)),
                                 JSON_LEAVES, max_size=4),
                 st.lists(JSON_LEAVES, max_size=3), JSON_LEAVES))
def test_check_any_instanton_table_exits_cleanly(tmp_path_factory,
                                                 max_degree, entries):
    path = tmp_path_factory.mktemp("table") / "table.json"
    path.write_text(json.dumps({"kind": "instanton_table",
                                "max_degree": max_degree,
                                "entries": entries}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(["check", "--input", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_rees_roundtrip_command(capsys):
    code, out, _ = run(capsys, ["rees-roundtrip", "--input",
                                str(DATA / "d3-a.dn.json")])
    assert code == 0
    assert out.startswith("from_normal_form: rank 4")
    assert "rees -> geometric -> rees identity: ok" in out
    assert "canonical coordinate is q: ok" in out
    assert "normal form returns the input exactly: ok" in out


def test_rees_roundtrip_needs_dn_input(capsys):
    code, _, err = run(capsys, ["rees-roundtrip", "--input",
                                str(DATA / "d3-a.rees.json")])
    assert code == 1
    assert "expects a dn_object" in err


def test_missing_file_exit_two(capsys):
    code, _, err = run(capsys, ["check", "--input", "no-such-file.json"])
    assert code == 2
    assert err.startswith("error:")


def test_malformed_json_exit_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "dn_object", ')
    code, _, err = run(capsys, ["check", "--input", str(path)])
    assert code == 2
    assert err.startswith("error:")


def test_parse_error_exit_two(tmp_path, capsys):
    path = tmp_path / "broken.pf.txt"
    path.write_text("theta^\n")
    code, _, err = run(capsys, ["pipeline", "--input", str(path)])
    assert code == 2
    assert err.startswith("error:")


def test_trailing_operator_input_exit_two(tmp_path, capsys):
    path = tmp_path / "trailing.pf.txt"
    path.write_text("theta^4 )\n")
    assert run(capsys, ["pipeline", "--input", str(path)]) == \
        (2, "", "error: trailing input after expression\n")


@pytest.mark.parametrize("order", ["1", "0", "-3"])
def test_order_too_small_rejected(capsys, order):
    code, out, err = run(capsys, ["pipeline", "--input", QUINTIC,
                                  "--order", order])
    assert code == 2 and out == ""
    assert err == "error: --order must be at least 2\n"


def test_deep_nesting_exit_two(tmp_path, capsys):
    path = tmp_path / "deep.pf.txt"
    path.write_text("(" * 400 + "theta" + ")" * 400)
    code, out, err = run(capsys, ["pipeline", "--input", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "nested" in err
    assert err.count("\n") == 1


def test_dn_object_missing_fields_exit_two(tmp_path, capsys):
    path = tmp_path / "partial.dn.json"
    path.write_text('{"kind":"dn_object","n":3}')
    code, _, err = run(capsys, ["check", "--input", str(path)])
    assert code == 2
    assert err.startswith("error:") and "graded_dims" in err
    assert err.count("\n") == 1


def test_zero_denominator_coefficient_exit_two(tmp_path, capsys):
    path = tmp_path / "div.pf.json"
    path.write_text('{"order": 1, "coeffs": ["1/0", "1"]}')
    code, _, err = run(capsys, ["pipeline", "--input", str(path)])
    assert code == 2
    assert err.startswith("error:") and "1/0" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("coeff", ["null", "[1]", "1e999", "0.1", "true"],
                         ids=["null", "list", "infinite", "float", "bool"])
def test_non_numeric_operator_coefficient_exit_two(coeff, tmp_path, capsys):
    # a float is already rounded and true is not a number: neither is
    # read as a coefficient
    path = tmp_path / "odd.pf.json"
    path.write_text('{"order": 1, "coeffs": [[0, %s], "1"]}' % coeff)
    code, out, err = run(capsys, ["check", "--input", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "'coeffs'" in err
    assert err.count("\n") == 1


def test_float_operator_order_exit_two(tmp_path, capsys):
    path = tmp_path / "odd.pf.json"
    path.write_text('{"order": 4.0, "coeffs": [[0, 1], [0], [0], [0], [1]]}')
    code, out, err = run(capsys, ["mirror-map", "--input", str(path),
                                  "--order", "3"])
    assert code == 2 and out == ""
    assert err == "error: field 'order' must be an integer, not float\n"


def test_check_refuses_theta_order_zero(tmp_path, capsys):
    path = tmp_path / "const.pf.txt"
    path.write_text("5\n")
    code, out, err = run(capsys, ["check", "--input", str(path)])
    assert code == 2 and out == ""
    assert err == "error: operator must have positive order\n"


def test_check_decodes_operator_json_once(monkeypatch, capsys):
    calls = []
    loads = json.loads

    def counted(*args, **kwargs):
        calls.append(args)
        return loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counted)
    code, out, _ = run(capsys, ["check", "--input",
                                str(DATA / "quintic.pf.json")])
    assert code == 0
    assert out == "pf_operator: order 4, maximally unipotent: ok\n"
    assert len(calls) == 1


def test_deep_json_exit_two(tmp_path, capsys):
    deep = "[" * 100000 + "]" * 100000
    for name, text in (("deep.dn.json", '{"kind":"dn_object","n":' + deep
                        + "}"),
                       ("deep.pf.json", '{"coeffs":' + deep + "}")):
        path = tmp_path / name
        path.write_text(text)
        for command in ("check", "pipeline"):
            code, _, err = run(capsys, [command, "--input", str(path)])
            assert code == 2
            assert err.startswith("error:") and "nested" in err


def _spoil_first_scalar(obj):
    """Replace the first scalar string found in obj by "abc"."""
    keys = sorted(k for k in obj if k != "kind") \
        if isinstance(obj, dict) else range(len(obj))
    for key in keys:
        if isinstance(obj[key], str):
            obj[key] = "abc"
            return True
        if isinstance(obj[key], (dict, list)) and \
                _spoil_first_scalar(obj[key]):
            return True
    return False


def _stored_objects():
    dn = jsonio.load_text((DATA / "d3-a.dn.json").read_text())
    rees = vshs.from_normal_form(dn)
    table = instantons_from_g(Series([Scalar(5), Scalar(2875)], 4),
                              Scalar(5))
    return {"dn_object": jsonio.dn_to_obj(dn),
            "rees_module": jsonio.rees_to_obj(rees),
            "geometric_vhs": jsonio.geometric_to_obj(
                vshs.rees_to_geometric(rees)),
            "instanton_table": jsonio.table_to_obj(table)}


@pytest.mark.parametrize("volume", ["abc", "1/0"])
def test_malformed_volume_exit_two(volume, capsys):
    code, out, err = run(capsys, ["pipeline", "--input", QUINTIC,
                                  "--order", "4", "--volume", volume])
    assert code == 2 and out == ""
    assert err.startswith("error: --volume") and volume in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("kind", ["dn_object", "rees_module",
                                  "geometric_vhs", "instanton_table"])
def test_malformed_stored_scalar_exit_two(kind, tmp_path, capsys):
    obj = _stored_objects()[kind]
    assert _spoil_first_scalar(obj)
    path = tmp_path / "bad.json"
    path.write_text(jsonio.dumps(obj))
    code, out, err = run(capsys, ["check", "--input", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "'abc'" in err
    assert err.count("\n") == 1


def test_negative_decimal_rejected_before_output(capsys):
    code, out, err = run(capsys, ["yukawa", "--input",
                                  str(DATA / "synthetic-a.pf.txt"),
                                  "--order", "4", "--decimal", "-2"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--decimal" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("digits", ["1001", "4400", "200000"])
def test_decimal_over_the_limit_rejected_before_output(capsys, digits):
    code, out, err = run(capsys, ["instantons", "--input",
                                  str(DATA / "quintic.pf.txt"), "--order",
                                  "3", "--volume", "3/7", "--decimal", digits])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "MAX_DECIMAL = 1000" in err
    assert err.count("\n") == 1


def test_decimal_at_the_limit_prints(capsys):
    code, out, _ = run(capsys, ["instantons", "--input",
                                str(DATA / "quintic.pf.txt"), "--order", "3",
                                "--volume", "3/7", "--decimal", "1000"])
    assert code == 0 and "(~ " in out


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("volume", ["7" * 4251, "1e1000", "3/1" + "0" * 1000,
                                    "1+" + "7" * 1001 + "*i"])
def test_volume_over_the_digit_limit_rejected_before_output(capsys, fmt,
                                                            volume):
    # 4251 sevens used to print 70 KB of table and then fail on a value
    # past CPython's 4300-digit limit for int to str
    code, out, err = run(capsys, ["pipeline", "--input",
                                  str(DATA / "quintic.pf.txt"), "--order",
                                  "32", "--volume", volume, "--format", fmt])
    assert code == 2 and out == ""
    assert err.startswith("error: --volume") and \
        "MAX_VOLUME_DIGITS = 1000" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("where", ["volume", "operator"])
def test_huge_scalar_exponent_exits_two_at_once(where, tmp_path, capsys):
    # Fraction("1e10000000") spends 15 s building 10**10000000 before
    # any size check; the exponent is refused before that
    argv = ["yukawa", "--input", QUINTIC, "--order", "4",
            "--volume", "1e10000000"]
    if where == "operator":
        path = tmp_path / "big.pf.json"
        path.write_text('{"coeffs": [["0", "1e10000000"], ["1"]]}')
        argv = ["check", "--input", str(path)]
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error:") and "MAX_SCALAR_EXPONENT = 4300" in err
    assert err.count("\n") == 1


def test_volume_at_the_digit_limit_prints(capsys):
    volume = "7" * 1000 + "/1" + "0" * 998 + "3"
    code, out, _ = run(capsys, ["pipeline", "--input",
                                str(DATA / "quintic.pf.txt"), "--order", "32",
                                "--volume", volume])
    assert code == 0 and "7" * 1000 in out


@pytest.mark.parametrize("text, limit", [
    ("theta^100000000 - 5*q*(5*theta+1)", "MAX_EXPONENT"),
    ("theta^4 - 5*q^100000000*(5*theta+1)", "MAX_EXPONENT"),
    ("(theta^64)^64 - q", "MAX_DEGREE"),
    ("theta^4 - 5*q^40*q^40", "MAX_DEGREE"),
    ("theta^48", "MAX_THETA_ORDER"),
    ('{"coeffs": [%s"1"]}' % ('"0", ' * 25), "MAX_THETA_ORDER"),
])
def test_operator_size_limits_exit_two(text, limit, tmp_path, capsys):
    path = tmp_path / "big.pf.txt"
    path.write_text(text)
    code, out, err = run(capsys, ["check", "--input", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and limit in err
    assert err.count("\n") == 1


def test_theta_order_at_the_limit_runs(tmp_path, capsys):
    path = tmp_path / "top.pf.txt"
    path.write_text(f"theta^{picard_fuchs.MAX_THETA_ORDER}\n")
    code, out, err = run(capsys, ["mirror-map", "--input", str(path),
                                  "--order", "4"])
    assert code == 0 and err == ""
    assert out.startswith("# mirror map Q(q), both routes agree mod q^4")


def test_order_limit_exit_two(capsys):
    code, out, err = run(capsys, ["pipeline", "--input", QUINTIC,
                                  "--order", str(cli.MAX_ORDER + 1)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "MAX_ORDER" in err
    assert err.count("\n") == 1


def test_instantons_by_dimension(tmp_path, capsys):
    fourfold = tmp_path / "sextic4.pf.txt"
    fourfold.write_text("theta^5 - 6*q*(6*theta+1)*(6*theta+2)*(6*theta+3)"
                        "*(6*theta+4)*(6*theta+5)\n")
    code, out, _ = run(capsys, ["instantons", "--input", str(fourfold),
                                "--volume", "6", "--order", "6"])
    assert code == 0
    assert "d=1     60480\n" in out and "not an integer" not in out
    k3 = tmp_path / "k3.pf.txt"
    k3.write_text("theta^3 - 8*q*(2*theta+1)^3\n")
    code, out, _ = run(capsys, ["instantons", "--input", str(k3)])
    assert code == 0 and "(all zero)" in out
    fivefold = tmp_path / "five.pf.txt"
    fivefold.write_text("theta^6 - q*(theta+1)^6\n")
    code, out, err = run(capsys, ["instantons", "--input", str(fivefold),
                                  "--order", "4"])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "dimension 5" in err
    assert err.count("\n") == 1


FIVEFOLD_REFUSAL = ("error: instanton numbers in dimension 5 are not read "
                    "from one connection entry; only n <= 4 is supported\n")


@pytest.mark.parametrize("command", ["pipeline", "instantons"])
def test_dimension_five_refused_before_the_normal_form(command, tmp_path,
                                                       capsys, monkeypatch):
    fivefold = tmp_path / "five.pf.txt"
    fivefold.write_text("theta^6 - q*(theta+1)^6\n")

    def never(*args, **kwargs):
        raise AssertionError("the normal form was built")

    monkeypatch.setattr(vshs, "to_normal_form", never)
    code, out, err = run(capsys, [command, "--input", str(fivefold),
                                  "--order", "4"])
    assert (code, out, err) == (1, "", FIVEFOLD_REFUSAL)
    # volume errors are still reported first
    code, out, err = run(capsys, [command, "--input", str(fivefold),
                                  "--volume", "0"])
    assert (code, out, err) == (1, "", "error: volume must be nonzero\n")
    code, _, err = run(capsys, [command, "--input", str(fivefold),
                                "--volume", "x"])
    assert code == 2 and err.startswith("error: --volume:")


def test_dimension_five_yukawa_still_runs(tmp_path, capsys):
    fivefold = tmp_path / "five.pf.txt"
    fivefold.write_text("theta^6 - q*(theta+1)^6\n")
    code, out, _ = run(capsys, ["yukawa", "--input", str(fivefold),
                                "--order", "4"])
    assert code == 0 and out.startswith("# Yukawa coupling mod Q^4\n")


@pytest.mark.parametrize("order, digest", [
    (16, "7d604c497e25f1287e3d5228dbfd54834ca8f4fef1d1af5cd0e14d66971e3f4e"),
    (24, "44b0220257f64eae0921ab8c00978899366ebee8cee25d53cdc224d76080a1fe"),
    (32, "4b34a7ad77229d470d083ceb60e15f7a1621c606f93bbf2e7b695a08ca180b41"),
    (64, "0f023c4f8225f6657ac41eed6c8fd16985ddfd03f4a437b22a7c1b044336c9cb"),
    (128, "69471c476896edf8759e45197e547dd4ea05bec4596b1633adbcf98e38d20403"),
])
def test_pipeline_json_bytes_pinned(order, digest, capsys):
    code, out, _ = run(capsys, ["pipeline", "--input", QUINTIC,
                                "--order", str(order), "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("operator, yukawa_digest, normal_form_digest", [
    ("theta^3 - q*(theta+1)^3",
     "c1fc9bbe852d8f7d989a5ac065708b6de0ebfef42e04eb0c16c3b5559759a417",
     "482564777f2df67582541c9e9d833e608b6c4f2277426e3c8de66a48cc4e79ba"),
    ("theta^5 - q*(theta+1)^5",
     "c1fc9bbe852d8f7d989a5ac065708b6de0ebfef42e04eb0c16c3b5559759a417",
     "1518968ae8d05f87765412fd92d0e929e86f4e28c02042d0a49e3664842198cf"),
    ("theta^6 - q*(theta+1)^6",
     "c1fc9bbe852d8f7d989a5ac065708b6de0ebfef42e04eb0c16c3b5559759a417",
     "c0810b0733d242bf0d10c02ba6dd00880e9469edc7e861f621764198325c5724"),
    ("theta^7 - 7*q*(7*theta+1)*(7*theta+2)*(7*theta+3)*(7*theta+4)"
     "*(7*theta+5)*(7*theta+6)", None, None),
    ("theta^6 - 7*q*(7*theta+1)*(7*theta+2)*(7*theta+3)*(7*theta+4)"
     "*(7*theta+5)*(7*theta+6)",
     "f6a015af10854ecd70e63bcd019bbd8094e923d5532e466ec5f85bad98e50b07",
     "2355c6492561067e02ab33ccd150606c87b679e08f854431912eb80d86e4fc84"),
], ids=["n2", "n4", "n5", "n6-theta7-with-septic-factors", "n5-septic"])
def test_yukawa_and_normal_form_bytes_pinned_by_dimension(
        operator, yukawa_digest, normal_form_digest, tmp_path, capsys):
    """The dimensions no fixture in data/ reaches: n = 2, 4, 5 and 6.

    The septic's operator is theta^6 - 7q(7 theta + 1)...(7 theta + 6),
    n = 5.  The n = 6 case puts theta^7 in front of the same factors; it
    is not the septic's operator, and its normal form is polarized only
    at q^0, so the DnObject it builds refuses it (no digest): both
    commands exit 1 with one error line and print nothing."""
    path = tmp_path / "op.pf.txt"
    path.write_text(operator + "\n")
    for command, digest in (("yukawa", yukawa_digest),
                            ("normal-form", normal_form_digest)):
        code, out, err = run(capsys, [command, "--input", str(path),
                                      "--order", "12", "--format", "json"])
        if digest is None:
            assert (code, out) == (1, "")
            assert err.splitlines() == [
                "error: A(q) is not self-adjoint for the pairing: the "
                "residual is nonzero at q^1, entry (0,5)"]
            continue
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_an_unpolarized_normal_form_is_refused(tmp_path, capsys):
    """theta^4 - q(theta+1)(theta+2)(theta+3)(theta+4) is maximally
    unipotent, but its normal form is self-adjoint only at q^0.  Every
    command that builds the DnObject refuses it, instead of printing
    instanton numbers that are not integral from d = 2 on; the mirror
    map needs no pairing."""
    path = tmp_path / "op.pf.txt"
    path.write_text("theta^4 - q*(theta+1)*(theta+2)*(theta+3)*(theta+4)\n")
    for command in ("pipeline", "instantons", "yukawa", "normal-form"):
        code, out, err = run(capsys, [command, "--input", str(path),
                                      "--order", "12"])
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "error: A(q) is not self-adjoint for the pairing: the "
            "residual is nonzero at q^1, entry (0,2)"]
    code, out, _ = run(capsys, ["mirror-map", "--input", str(path),
                                "--order", "12"])
    assert code == 0 and out


def test_check_refuses_a_dn_object_unpolarized_at_q2(tmp_path, capsys):
    """d3-a with its degree +2 entry (3,2) changed at q^2: every pointwise
    invariant and the unit still hold, only the pairing fails."""
    obj = json.loads((DATA / "d3-a.dn.json").read_text())
    obj["a_series"]["entries"][3][2] = ["1", "0", "5"]
    path = tmp_path / "spoiled.dn.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, ["check", "--input", str(path)])
    assert (code, out, err) == (
        1, "FAIL: A(q) is not self-adjoint for the pairing: the residual "
        "is nonzero at q^2, entry (0,2)\n", "")
    code, out, err = run(capsys, ["rees-roundtrip", "--input", str(path)])
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_pipeline_never_extends_the_solved_pairing(capsys, monkeypatch):
    """The normal form keeps only the constant pairing it solves for, so
    the pipeline does not run the pairing extension."""
    def fail(*args, **kwargs):
        raise AssertionError("extend_pairing called")

    monkeypatch.setattr(vshs, "extend_pairing", fail)
    code, out, _ = run(capsys, ["pipeline", "--input", QUINTIC,
                                "--order", "16", "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        "7d604c497e25f1287e3d5228dbfd54834ca8f4fef1d1af5cd0e14d66971e3f4e"


@pytest.mark.parametrize("value", ['"abc"', "3.5", "true"],
                         ids=["string", "float", "bool"])
def test_non_integer_stored_field_exit_two(value, tmp_path, capsys):
    text = (DATA / "d3-a.dn.json").read_text()
    assert '"n": 3,' in text
    path = tmp_path / "bad-n.dn.json"
    path.write_text(text.replace('"n": 3,', f'"n": {value},'))
    code, out, err = run(capsys, ["check", "--input", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "'n'" in err
    assert err.count("\n") == 1


def test_non_integer_graded_dims_key_exit_two(tmp_path, capsys):
    obj = json.loads((DATA / "d3-a.dn.json").read_text())
    obj["graded_dims"]["x"] = obj["graded_dims"].pop("3")
    path = tmp_path / "bad-key.dn.json"
    path.write_text(json.dumps(obj))
    assert run(capsys, ["check", "--input", str(path)]) == \
        (2, "", "error: the keys of 'graded_dims' must be integers\n")


@pytest.mark.parametrize("edits, message", [
    ([(("a_series", "entries", 3, 2), "1")],
     "field 'entries' must be a list, not str"),
    ([(("pairing0", 0), "0002")], "field 'pairing0' must be a list, not str"),
    ([(("a_series", "rows"), 7), (("a_series", "cols"), 1)],
     "field 'entries' is not the 7 x 1 matrix that 'rows' and 'cols' "
     "state"),
    ([(("a_series", "entries", 2, 1),
       ["1/3", "-1/9", "2/3", "-1/9", "-1/2", "-2/3", "-1/3", "1/2", "5"])],
     "field 'entries' holds 9 coefficients, more than the order 8"),
], ids=["string-cell", "string-row", "stated-shape", "ninth-coefficient"])
def test_stored_matrix_is_read_as_written(edits, message, tmp_path, capsys):
    """A string iterates like a list and a Series drops what lies beyond
    its order, so each of these read as a valid object before."""
    obj = json.loads((DATA / "d3-a.dn.json").read_text())
    for (*path, last), value in edits:
        target = obj
        for key in path:
            target = target[key]
        target[last] = value
    path = tmp_path / "misread.dn.json"
    path.write_text(json.dumps(obj))
    assert run(capsys, ["check", "--input", str(path)]) == \
        (2, "", f"error: {message}\n")


@pytest.mark.parametrize("order", [-3, cli.MAX_ORDER + 1, 200000])
@pytest.mark.parametrize("name, command", [
    ("d3-a.dn.json", "check"), ("d3-a.dn.json", "rees-roundtrip"),
    ("d3-a.rees.json", "check")])
def test_stored_order_over_the_limit_exit_two(order, name, command, tmp_path,
                                              capsys):
    text = (DATA / name).read_text()
    assert '"order": 8' in text
    path = tmp_path / name
    path.write_text(text.replace('"order": 8', f'"order": {order}'))
    code, out, err = run(capsys, [command, "--input", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "MAX_ORDER = 256" in err
    assert err.count("\n") == 1


def test_stored_order_at_the_limit_loads():
    text = (DATA / "d3-a.dn.json").read_text()
    dn = jsonio.load_text(text.replace('"order": 8',
                                       f'"order": {cli.MAX_ORDER}'))
    assert dn.order == cli.MAX_ORDER


@pytest.mark.parametrize("name, template", [
    ("long.pf.txt", "theta^4 - {}*q"),
    ("long.dn.json", '{{"kind": "dn_object", "n": {}}}'),
], ids=["operator-text", "stored-json"])
def test_integer_over_digit_limit_exit_two(name, template, tmp_path,
                                           capsys):
    path = tmp_path / name
    path.write_text(template.format("7" * 5000))
    code, out, err = run(capsys, ["check", "--input", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("text, code, needle", [
    ("2", 2, "positive order"),
    ("5", 2, "positive order"),
    ("theta", 1, "theta-order at least 2"),
], ids=["two", "five", "theta"])
def test_mirror_map_low_theta_order(text, code, needle, tmp_path, capsys):
    path = tmp_path / "low.pf.txt"
    path.write_text(text + "\n")
    got, out, err = run(capsys, ["mirror-map", "--input", str(path),
                                 "--order", "4"])
    assert got == code and out == ""
    assert err.startswith("error:") and needle in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["check", "pipeline"])
def test_non_utf8_input_exit_two(command, tmp_path, capsys):
    path = tmp_path / "latin1.pf.txt"
    path.write_bytes("theta^4 - 5 q  # \xe9\n".encode("latin-1"))
    code, out, err = run(capsys, [command, "--input", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "UTF-8" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("text", ["{}", '{"kind": 5}', '{"kind": [1]}'],
                         ids=["empty", "number", "list"])
def test_unknown_kind_exit_two(text, tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_text(text)
    code, out, err = run(capsys, ["check", "--input", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "unknown object kind" in err
    assert err.count("\n") == 1


# Token soup for the fuzz test.  Digits stay below 4 and tokens are
# joined by spaces, so the largest operator the soup can spell has a
# small theta-order and every example runs in well under a second.
SOUP_TOKENS = ["theta", "q", "+", "-", "*", "/", "^", "(", ")",
               "0", "1", "2", "3",
               "{", "}", "[", "]", ":", ",", '"kind"', '"coeffs"',
               '"order"', '"pf_operator"', '"dn_object"', "null", '"1/0"']


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(SOUP_TOKENS), max_size=10).map(" ".join))
def test_cli_fuzz_exit_codes(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "soup.txt"
    path.write_text(text)
    for argv in (["pipeline", "--order", "4"], ["mirror-map", "--order", "4"],
                 ["check"]):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv + ["--input", str(path)])
        assert code in (0, 1, 2), (argv, text)
