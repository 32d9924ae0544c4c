"""End-to-end tests of the command line, run in process."""
import contextlib
import hashlib
import io
import json
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


def test_order_too_small_rejected(capsys):
    code, _, err = run(capsys, ["pipeline", "--input", QUINTIC,
                                "--order", "1"])
    assert code == 1
    assert "--order" in err


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


@pytest.mark.parametrize("coeff", ["null", "[1]", "1e999"],
                         ids=["null", "list", "infinite"])
def test_non_numeric_operator_coefficient_exit_two(coeff, tmp_path, capsys):
    path = tmp_path / "odd.pf.json"
    path.write_text('{"order": 1, "coeffs": [[0, %s], "1"]}' % coeff)
    code, out, err = run(capsys, ["check", "--input", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1


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
