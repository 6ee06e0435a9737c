import json
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from involutive import scheme
from involutive.cli import main
from involutive.serialize import parse_coeff

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_mult_vars(capsys):
    code, report = run_json(
        capsys, "mult-vars", "--input", str(CORPUS / "termset_mixed_three_vars.json")
    )
    assert code == 0
    janet = {tuple(e["term"]): e["mult"] for e in report["janet"]}
    assert janet[(3, 0, 0)] == [1]
    pommaret = {tuple(e["term"]): e["mult"] for e in report["pommaret"]}
    assert pommaret[(4, 1, 1)] == [1]


def test_complete_check_negative_verdict(capsys):
    code, report = run_json(
        capsys, "complete-check", "--input", str(CORPUS / "termset_incomplete_pair.json")
    )
    assert code == 1
    assert report["complete"] is False
    assert report["witness"] == {"term": [1, 0], "variable": 2}


def test_complete_check_positive(capsys):
    code, report = run_json(
        capsys, "complete-check", "--input", str(CORPUS / "termset_m0.json")
    )
    assert code == 0 and report["complete"] is True


def test_stably_complete_check(capsys):
    code, report = run_json(
        capsys,
        "stably-complete-check",
        "--input",
        str(CORPUS / "termset_complete_pair.json"),
    )
    assert code == 1 and report["stably_complete"] is False
    code, report = run_json(
        capsys,
        "stably-complete-check",
        "--input",
        str(CORPUS / "termset_stably_complete_triple.json"),
    )
    assert code == 0 and report["stably_complete"] is True


def test_completion(capsys):
    code, report = run_json(
        capsys,
        "complete",
        "--input",
        str(CORPUS / "termset_incomplete_triple.json"),
        "--degree-bound",
        "12",
    )
    assert code == 0
    assert report["terms"] == [[2, 0], [1, 1], [1, 2], [0, 3]]
    assert report["added"] == [[1, 2]]


def test_completion_degree_cap(capsys):
    code, report = run_json(
        capsys,
        "complete",
        "--input",
        str(CORPUS / "termset_incomplete_pair.json"),
        "--degree-bound",
        "1",
    )
    assert code == 2
    assert report["error"]["type"] == "DegreeCapExceeded"
    assert report["error"]["partial"]["terms"]


def test_star_set(capsys):
    code, report = run_json(
        capsys,
        "star-set",
        "--input",
        str(CORPUS / "ideal_principal_x.json"),
        "--degree-bound",
        "5",
    )
    assert code == 0
    assert report["terms"] == [[1, 0], [1, 1], [1, 2], [1, 3], [1, 4]]
    assert report["exhaustive"] is False


def test_star_set_at_a_huge_degree_bound(tmp_path, capsys):
    source = tmp_path / "x3.json"
    source.write_text(json.dumps({"generators": [[0, 0, 1]], "vars": 3}))
    code, report = run_json(
        capsys, "star-set", "--input", str(source), "--degree-bound", "400"
    )
    assert code == 0
    assert report["terms"] == [[0, 0, 1]]
    assert report["exhaustive"] is True


def test_classify(capsys):
    code, report = run_json(
        capsys, "classify", "--input", str(CORPUS / "ideal_quasi_stable.json")
    )
    assert code == 0
    assert report["quasi_stable"] is True and report["stable"] is False
    assert report["witnesses"]["stable"] is not None


def test_pommaret(capsys):
    code, report = run_json(
        capsys, "pommaret", "--input", str(CORPUS / "ideal_quasi_stable.json")
    )
    assert code == 0
    assert report["terms"] == [[0, 1, 0], [0, 1, 1], [0, 0, 2]]
    assert report["regularity"] == 2


def test_pommaret_negative(capsys):
    code, report = run_json(
        capsys, "pommaret", "--input", str(CORPUS / "ideal_not_quasi_stable.json")
    )
    assert code == 1
    assert report["error"] == "not-quasi-stable"
    assert report["witness"]["term"] == [0, 1, 0]


def test_unit_ideal(tmp_path, capsys):
    path = tmp_path / "unit.json"
    path.write_text('{"vars": 2, "generators": [[0, 0]]}')
    code, report = run_json(capsys, "pommaret", "--input", str(path))
    assert code == 0 and report == {"regularity": 0, "terms": [[0, 0]], "vars": 2}
    code, report = run_json(capsys, "scheme-equations", "--input", str(path))
    assert code == 0
    assert report["generic_set"]["polynomials"] == [{"head": [0, 0], "tail": []}]
    assert report["equations"] == []


def test_hilbert(capsys):
    code, report = run_json(
        capsys,
        "hilbert",
        "--input",
        str(CORPUS / "termset_m0.json"),
        "--degree-bound",
        "3",
    )
    assert code == 0
    assert report["value"] == 1  # escalier of (x1^2, x1x2, x3) in degree 3 is {x2^3}


def test_sigma_and_involutive(capsys):
    code, report = run_json(
        capsys,
        "sigma",
        "--input",
        str(CORPUS / "ideal_stable.json"),
        "--degree-bound",
        "2",
        "--sigma-mode",
        "ideal-slice",
    )
    assert code == 0 and report["counts"] == [1, 2, 1]
    code, report = run_json(
        capsys,
        "involutive-test",
        "--input",
        str(CORPUS / "ideal_stable.json"),
        "--degree-bound",
        "2",
    )
    assert code == 0 and report["holds"] is True
    code, report = run_json(
        capsys,
        "involutive-test",
        "--input",
        str(CORPUS / "ideal_stable.json"),
        "--degree-bound",
        "1",
    )
    assert code == 1 and report["holds"] is False


def test_sigma_at_a_huge_degree_bound(tmp_path, capsys):
    # (x6) has the one star term x6, so no degree-200 slice is enumerated
    source = tmp_path / "x6.json"
    source.write_text(json.dumps({"vars": 6, "generators": [[0, 0, 0, 0, 0, 1]]}))
    bound = ["--input", str(source), "--degree-bound", "200", "--sigma-mode", "escalier"]
    code, report = run_json(capsys, "sigma", *bound)
    assert code == 0
    assert report["counts"] == [comb(199 + 5 - i, 5 - i) for i in range(1, 6)] + [0]
    code, report = run_json(capsys, "involutive-test", *bound)
    assert code == 0 and report["holds"] is True


def test_reduce_cycle(capsys):
    code, report = run_json(
        capsys, "reduce", "--input", str(CORPUS / "reduce_cycle.json"), "--trace"
    )
    assert code == 1
    assert report["status"] == "cycle-detected"
    assert report["step_count"] == 2
    assert len(report["steps"]) == 2


def test_is_marked_basis(capsys):
    # the criterion's reductions always end: --step-cap bounds reduce alone
    example = str(CORPUS / "marked_basis_example.json")
    for options in ((), ("--step-cap", "1")):
        code, report = run_json(capsys, "is-marked-basis", "--input", example, *options)
        assert code == 0
        assert report["is_basis"] is True
        assert len(report["checks"]) == 3
        assert all(c["zero"] for c in report["checks"])


def test_oracle_check(capsys):
    code, report = run_json(
        capsys, "oracle-check", "--input", str(CORPUS / "marked_basis_example.json")
    )
    assert code == 0 and report["ok"] is True and report["max_degree"] == 4


# The scheme equations of the three-points ideal, monomials in output order.
THREE_POINTS_TEXT = [
    "C[1][2,0,0]*C[2][1,1,0] - C[1][1,1,0]*C[2][2,0,0] - C[1][1,0,1]*C[3][2,0,0]"
    " + C[2][2,0,0]*C[2][1,0,1]",
    "-C[2][2,0,0] - C[1][1,0,1]*C[3][1,1,0] + C[2][1,1,0]*C[2][1,0,1]",
    "C[1][2,0,0] - C[1][1,1,0]*C[2][1,0,1] + C[1][1,0,1]*C[2][1,1,0]"
    " - C[1][1,0,1]*C[3][1,0,1] + C[2][1,0,1]^2",
    "C[1][2,0,0]*C[3][1,1,0] - C[2][2,0,0]*C[2][1,1,0] + C[2][2,0,0]*C[3][1,0,1]"
    " - C[2][1,0,1]*C[3][2,0,0]",
    "-C[3][2,0,0] + C[1][1,1,0]*C[3][1,1,0] - C[2][1,1,0]^2 + C[2][1,1,0]*C[3][1,0,1]"
    " - C[2][1,0,1]*C[3][1,1,0]",
    "C[2][2,0,0] + C[1][1,0,1]*C[3][1,1,0] - C[2][1,1,0]*C[2][1,0,1]",
]
THREE_POINTS_EQUATIONS = [
    [
        (1, {"C[1][2,0,0]": 1, "C[2][1,1,0]": 1}),
        (-1, {"C[1][1,1,0]": 1, "C[2][2,0,0]": 1}),
        (-1, {"C[1][1,0,1]": 1, "C[3][2,0,0]": 1}),
        (1, {"C[2][2,0,0]": 1, "C[2][1,0,1]": 1}),
    ],
    [
        (-1, {"C[2][2,0,0]": 1}),
        (-1, {"C[1][1,0,1]": 1, "C[3][1,1,0]": 1}),
        (1, {"C[2][1,1,0]": 1, "C[2][1,0,1]": 1}),
    ],
    [
        (1, {"C[1][2,0,0]": 1}),
        (-1, {"C[1][1,1,0]": 1, "C[2][1,0,1]": 1}),
        (1, {"C[1][1,0,1]": 1, "C[2][1,1,0]": 1}),
        (-1, {"C[1][1,0,1]": 1, "C[3][1,0,1]": 1}),
        (1, {"C[2][1,0,1]": 2}),
    ],
    [
        (1, {"C[1][2,0,0]": 1, "C[3][1,1,0]": 1}),
        (-1, {"C[2][2,0,0]": 1, "C[2][1,1,0]": 1}),
        (1, {"C[2][2,0,0]": 1, "C[3][1,0,1]": 1}),
        (-1, {"C[2][1,0,1]": 1, "C[3][2,0,0]": 1}),
    ],
    [
        (-1, {"C[3][2,0,0]": 1}),
        (1, {"C[1][1,1,0]": 1, "C[3][1,1,0]": 1}),
        (-1, {"C[2][1,1,0]": 2}),
        (1, {"C[2][1,1,0]": 1, "C[3][1,0,1]": 1}),
        (-1, {"C[2][1,0,1]": 1, "C[3][1,1,0]": 1}),
    ],
    [
        (1, {"C[2][2,0,0]": 1}),
        (1, {"C[1][1,0,1]": 1, "C[3][1,1,0]": 1}),
        (-1, {"C[2][1,1,0]": 1, "C[2][1,0,1]": 1}),
    ],
]


def test_scheme_equations(capsys):
    code, report = run_json(
        capsys, "scheme-equations", "--input", str(CORPUS / "ideal_marked_example.json")
    )
    assert code == 0
    assert report["parameters"] == ["C[1][2,0]", "C[1][0,2]"]
    assert report["equations"] == []
    code, report = run_json(
        capsys, "scheme-equations", "--input", str(CORPUS / "ideal_three_points.json")
    )
    assert code == 0
    assert len(report["parameters"]) == 9
    assert report["text"] == THREE_POINTS_TEXT
    assert report["equations"] == [
        {"monomials": [{"coeff": c, "vars": v} for c, v in eq]}
        for eq in THREE_POINTS_EQUATIONS
    ]


def test_specialize(capsys):
    code, report = run_json(
        capsys, "specialize", "--input", str(CORPUS / "specialize_point.json")
    )
    assert code == 0
    by_head = {tuple(p["head"]): p["tail"] for p in report["polynomials"]}
    assert by_head[(1, 1)] == [
        {"term": [2, 0], "coeff": "-1"},
        {"term": [0, 2], "coeff": "-1"},
    ]


def test_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, report = run_json(capsys, "classify", "--input", str(bad))
    assert code == 2 and "error" in report
    missing = tmp_path / "missing_field.json"
    missing.write_text(json.dumps({"vars": 2}))
    code, report = run_json(capsys, "classify", "--input", str(missing))
    assert code == 2 and "error" in report
    code, report = run_json(capsys, "classify", "--input", str(tmp_path / "nope.json"))
    assert code == 2 and "error" in report


def test_missing_degree_bound_is_usage_error(capsys):
    code, report = run_json(
        capsys, "star-set", "--input", str(CORPUS / "ideal_principal_x.json")
    )
    assert code == 2 and report["error"]["type"] == "usage"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["frobnicate", "--input", "x.json"], "invalid choice: 'frobnicate'"),
        (["classify"], "the following arguments are required: --input"),
        (["hilbert", "--input", "x.json", "--degree-bound", "two"], "invalid int value: 'two'"),
    ],
)
def test_parser_errors_print_an_error_object(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    error = json.loads(captured.out)["error"]
    assert error["type"] == "usage" and message in error["message"]


HELP = """\
usage: involutive [-h] --input INPUT [--output OUTPUT] [--step-cap STEP_CAP]
                  [--degree-bound DEGREE_BOUND]
                  [--sigma-mode {escalier,ideal-slice}] [--trace]
                  {mult-vars,complete-check,stably-complete-check,complete,star-set,classify,pommaret,hilbert,sigma,involutive-test,reduce,is-marked-basis,oracle-check,scheme-equations,specialize}

Involutive structure, marked bases and marked-scheme equations for monomial
ideals.

positional arguments:
  {mult-vars,complete-check,stably-complete-check,complete,star-set,classify,pommaret,hilbert,sigma,involutive-test,reduce,is-marked-basis,oracle-check,scheme-equations,specialize}

options:
  -h, --help            show this help message and exit
  --input INPUT         path to the JSON input file
  --output OUTPUT       write the JSON report here instead of stdout
  --step-cap STEP_CAP
  --degree-bound DEGREE_BOUND
                        degree bound / degree argument for commands that need
                        one
  --sigma-mode {escalier,ideal-slice}
  --trace               include reduction steps
"""


def test_help_still_prints_help(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == HELP


def test_bad_sigma_mode_names_the_choices(capsys):
    code, out = run(
        capsys, "sigma", "--input", str(CORPUS / "ideal_stable.json"),
        "--degree-bound", "2", "--sigma-mode", "bogus",
    )
    assert code == 2
    assert out == (
        '{\n  "error": {\n    "message": "argument --sigma-mode: invalid choice: '
        "'bogus' (choose from 'escalier', 'ideal-slice')\",\n"
        '    "type": "usage"\n  }\n}\n'
    )


def test_unwritable_output_exits_2(tmp_path, capsys):
    for target in (tmp_path / "missing" / "out.json", tmp_path):
        code, report = run_json(
            capsys, "classify", "--input", str(CORPUS / "ideal_stable.json"),
            "--output", str(target),
        )
        assert code == 2
        assert report["error"]["type"] == "usage"
        assert report["error"]["message"].startswith(f"cannot write {target}: ")


def test_head_marked_twice_exits_2(tmp_path, capsys):
    doubled = tmp_path / "doubled.json"
    doubled.write_text(
        json.dumps(
            {
                "vars": 2,
                "polynomials": [
                    {"head": [0, 1], "tail": [{"term": [1, 0], "coeff": "1"}]},
                    {"head": [0, 1], "tail": []},
                ],
            }
        )
    )
    code, report = run_json(capsys, "is-marked-basis", "--input", str(doubled))
    assert code == 2
    assert report["error"] == {
        "type": "InputFormatError",
        "message": "head [0, 1] is marked twice",
    }


def test_reports_round_trip_byte_identically(capsys):
    jobs = [
        ("mult-vars", "termset_m0.json", []),
        ("complete-check", "termset_incomplete_pair.json", []),
        ("star-set", "ideal_quasi_stable.json", ["--degree-bound", "6"]),
        ("classify", "ideal_stable.json", []),
        ("pommaret", "ideal_quasi_stable.json", []),
        ("is-marked-basis", "marked_basis_example.json", []),
        ("scheme-equations", "ideal_three_points.json", []),
        ("reduce", "reduce_cycle.json", ["--trace"]),
    ]
    for command, name, extra in jobs:
        _, out = run(capsys, command, "--input", str(CORPUS / name), *extra)
        reparsed = json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        assert reparsed == out


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(
        [
            "pommaret",
            "--input",
            str(CORPUS / "ideal_stable.json"),
            "--output",
            str(target),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads(target.read_text())
    assert report["terms"] == [[0, 0, 1], [0, 2, 0]]


def error_text(**error):
    return json.dumps({"error": error}, indent=2, sort_keys=True) + "\n"


def test_error_objects_are_byte_stable(tmp_path, capsys):
    no_generators = tmp_path / "no_generators.json"
    no_generators.write_text(json.dumps({"vars": 2}))
    missing_value = tmp_path / "missing_value.json"
    missing_value.write_text(
        json.dumps(
            {
                "ideal": {"vars": 2, "generators": [[3, 0], [1, 1], [0, 3]]},
                "assignment": {"C[1][0,2]": "-1"},
            }
        )
    )
    incomplete = str(CORPUS / "termset_incomplete_pair.json")
    cases = [
        (
            ["classify", "--input", str(no_generators)],
            error_text(type="InputFormatError", message='"generators" must be a non-empty list'),
        ),
        (
            ["specialize", "--input", str(missing_value)],
            error_text(type="MissingAssignment", message="no value for C[1][2,0]"),
        ),
        (
            ["sigma", "--input", str(CORPUS / "ideal_stable.json"), "--degree-bound", "0"],
            error_text(type="ValueError", message="sigma invariants are defined for degree >= 1"),
        ),
        (
            ["complete", "--input", incomplete, "--degree-bound", "1"],
            error_text(
                type="DegreeCapExceeded",
                message="completion needs degree 2 > cap 1",
                partial={"vars": 2, "terms": [[1, 0], [0, 2]]},
            ),
        ),
        (
            ["hilbert", "--input", incomplete, "--degree-bound", "2"],
            error_text(type="NotComplete", message="Hilbert formula needs a complete set"),
        ),
        (
            ["classify", "--input", str(CORPUS / "ideal_stable.json"), "--step-cap", "0"],
            error_text(type="usage", message="step cap must be >= 1"),
        ),
        (
            ["star-set", "--input", str(CORPUS / "ideal_stable.json")],
            error_text(type="usage", message="star-set needs --degree-bound >= 0"),
        ),
    ]
    for argv, expected in cases:
        assert run(capsys, *argv) == (2, expected), argv


def test_json_booleans_are_not_integers(tmp_path, capsys):
    source = tmp_path / "booleans.json"
    for doc, message in [
        ({"vars": True, "generators": [[True]]}, '"vars" must be a positive integer'),
        (
            {"vars": 1, "generators": [[True]]},
            "a term must be a list of non-negative integers, got [True]",
        ),
    ]:
        source.write_text(json.dumps(doc))
        code, report = run_json(capsys, "pommaret", "--input", str(source))
        assert code == 2
        assert report == {"error": {"type": "InputFormatError", "message": message}}


def test_oracle_check_degree_bound(capsys):
    example = str(CORPUS / "marked_basis_example.json")
    code, report = run_json(
        capsys, "oracle-check", "--input", example, "--degree-bound", "-3"
    )
    assert code == 2
    assert report["error"] == {
        "type": "usage",
        "message": "oracle-check needs --degree-bound >= 0",
    }
    # an explicit 0 is honoured, not replaced by the default, and refused:
    # a bound that does not pass the largest basis degree would leave the
    # top-degree prolongations unchecked
    for bound in ("0", "3"):
        code, report = run_json(
            capsys, "oracle-check", "--input", example, "--degree-bound", bound
        )
        assert code == 2
        assert report["error"] == {
            "type": "ValueError",
            "message": f"degree bound {bound} does not exceed the largest basis degree 3",
        }


def marked_set_with_tail_coeff(coeff):
    return {
        "vars": 2,
        "polynomials": [{"head": [0, 1], "tail": [{"term": [1, 0], "coeff": coeff}]}],
    }


def test_exponent_notation_is_bounded(tmp_path, capsys):
    assert parse_coeff("1e3") == 1000
    assert parse_coeff("1.5e-2") == Fraction(3, 200)
    assert parse_coeff("-1/2") == Fraction(-1, 2)
    # Fraction would build 10**(10**8): refused at once, with either sign
    source = tmp_path / "huge.json"
    for coeff in ("1e100000000", "1e-100000000"):
        source.write_text(json.dumps(marked_set_with_tail_coeff(coeff)))
        start = time.perf_counter()
        code, report = run_json(capsys, "is-marked-basis", "--input", str(source))
        assert time.perf_counter() - start < 1
        assert code == 2
        assert report["error"] == {
            "type": "InputFormatError",
            "message": f"coefficient {coeff!r} has a decimal exponent beyond 4300",
        }


def test_deeply_nested_input_exits_2(tmp_path, capsys):
    source = tmp_path / "deep.json"
    source.write_text("[" * 200_000 + "]" * 200_000)
    code, report = run_json(capsys, "classify", "--input", str(source))
    assert code == 2
    assert report["error"] == {
        "type": "InputFormatError",
        "message": f"{source} is nested too deeply",
    }


def test_overlong_integer_literal_exits_2(tmp_path, capsys):
    # json.load refuses integer literals past the interpreter's digit limit
    source = tmp_path / "long.json"
    source.write_text('{"vars": 1, "generators": [[' + "1" * 5000 + "]]}")
    code, report = run_json(capsys, "classify", "--input", str(source))
    assert code == 2
    assert report["error"]["type"] == "InputFormatError"
    assert report["error"]["message"].startswith(f"cannot read {source}: ")


def test_big_result_coefficients_are_reported(tmp_path, capsys):
    # y^2 reduces by y + 10^3000 x to 10^6000 x^2, past the default digit limit
    source = tmp_path / "big.json"
    source.write_text(json.dumps({
        "marked_set": marked_set_with_tail_coeff("1e3000"),
        "polynomial": [{"term": [0, 2], "coeff": "1"}],
    }))
    code, report = run_json(capsys, "reduce", "--input", str(source), "--trace")
    assert code == 0
    assert report["status"] == "reduced"
    assert report["result"] == [{"term": [2, 0], "coeff": "1" + "0" * 6000}]
    assert [s["coefficient"] for s in report["steps"]] == ["1", "-1" + "0" * 3000]
    # parsing still refuses over-long input
    assert parse_coeff("1e4300") == 10**4300
    source.write_text(json.dumps(marked_set_with_tail_coeff("1e4301")))
    code, report = run_json(capsys, "is-marked-basis", "--input", str(source))
    assert code == 2 and report["error"]["type"] == "InputFormatError"


def test_big_count_values_are_reported(tmp_path, capsys):
    # H(d) of (x4) counts the degree-d terms in x1..x3: about 6,000 digits here
    source = tmp_path / "x4.json"
    source.write_text(json.dumps({"vars": 4, "terms": [[0, 0, 0, 1]]}))
    d = int("1" * 3000)
    code, out = run(capsys, "hilbert", "--input", str(source), "--degree-bound", str(d))
    assert code == 0
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # to print the expected value
    try:
        expected = '{\n  "degree": %d,\n  "value": %d\n}\n' % (d, comb(d + 2, 2))
    finally:
        sys.set_int_max_str_digits(limit)
    assert out == expected


HUGE_HEAD = {"vars": 2, "generators": [[0, 10**12]]}
# (x2, x3^2000): 2001 heads of degrees 1..2000; the count passes the budget
# at degree 104 and stops there, where counting every degree takes seconds
MANY_HEADS = {"vars": 3, "generators": [[0, 1, 0], [0, 0, 2000]]}


@pytest.mark.parametrize(
    "command, ideal",
    [("scheme-equations", HUGE_HEAD), ("specialize", HUGE_HEAD), ("scheme-equations", MANY_HEADS)],
    ids=["huge-head", "huge-head-specialize", "many-heads"],
)
def test_huge_generic_marked_set_exits_2_at_once(tmp_path, capsys, command, ideal):
    source = tmp_path / "huge.json"
    document = {"ideal": ideal, "assignment": {}} if command == "specialize" else ideal
    source.write_text(json.dumps(document))
    start = time.perf_counter()
    code, report = run_json(capsys, command, "--input", str(source))
    assert time.perf_counter() - start < 1
    assert code == 2
    error = report["error"]
    assert error["type"] == "WorkBudgetExceeded"
    assert error["budget"] == scheme._WORK_BUDGET < error["estimate"]
    if ideal is HUGE_HEAD:
        # one head with 10^12 escalier terms of its degree, counted from the
        # Hilbert function instead of listed
        estimate = 2 * 10**12 + 1
        assert error == {
            "type": "WorkBudgetExceeded",
            "message": f"the generic marked set needs at least {estimate} parameters and "
            f"slice terms, past the budget of {scheme._WORK_BUDGET}",
            "estimate": estimate,
            "budget": scheme._WORK_BUDGET,
        }
