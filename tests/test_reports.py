import contextlib
import copy
import io
import json

import numpy as np
import pytest
from jsonschema import Draft202012Validator

import resonatorlab.reports as reports
from resonatorlab.cli import main
from resonatorlab.errors import ReportSchemaError


def test_make_report_validates_and_dumps():
    doc = reports.make_report(
        "design",
        inputs={"r_normal": 1250.0},
        results={"i_c_a": 2.26e-7, "note": None},
        plot_data={
            "curve": reports.plot_group(
                "x", [1.0, 2.0], reports.series("y", np.array([1.0, np.nan]))
            )
        },
    )
    text = reports.dump_report(doc)
    parsed = json.loads(text)
    assert parsed == doc
    assert parsed["plot_data"]["curve"]["series"][0]["values"] == [1.0, None]
    assert "generated_at" not in parsed


def test_reports_are_deterministic():
    kwargs = dict(
        subcommand="design",
        inputs={"b": 2, "a": 1},
        results={"z": 1.0, "y": [1, 2, 3]},
    )
    assert reports.dump_report(reports.make_report(**kwargs)) == reports.dump_report(
        reports.make_report(**kwargs)
    )


def test_timestamp_is_the_only_optional_field():
    doc = reports.make_report("design", {}, {}, timestamp="2026-01-01T00:00:00+00:00")
    assert doc["generated_at"] == "2026-01-01T00:00:00+00:00"
    reports.validate_report(doc)


def test_schema_rejects_malformed_plot_data():
    doc = reports.make_report("design", {}, {})
    doc["plot_data"] = {"bad": {"x": {"label": "x"}}}  # missing values/series
    with pytest.raises(ReportSchemaError):
        reports.validate_report(doc)


def test_schema_rejects_unknown_top_level_keys():
    doc = reports.make_report("design", {}, {})
    doc["extra"] = 1
    with pytest.raises(ReportSchemaError):
        reports.validate_report(doc)


def test_jsonify_handles_numpy_and_non_finite():
    out = reports.jsonify(
        {"a": np.float64(1.5), "b": np.inf, "c": np.array([1, 2]), "d": np.bool_(True)}
    )
    assert out == {"a": 1.5, "b": None, "c": [1, 2], "d": True}
    with pytest.raises(TypeError):
        reports.jsonify({"bad": object()})


def test_error_report_exit_codes():
    import resonatorlab as rl

    cases = [
        (rl.SchemaError("x"), 2),
        (rl.DataError("x"), 2),
        (rl.InsufficientDataError("x"), 2),
        (ValueError("x"), 2),
        (FileNotFoundError("x"), 2),
        (rl.ConvergenceError("x"), 3),
        (rl.DomainError("x"), 4),
    ]
    for exc, code in cases:
        assert reports.exit_code_for(exc) == code
        doc = reports.error_report(exc, "fit-linear")
        assert doc["error"]["exit_code"] == code
        assert doc["error"]["type"] == type(exc).__name__


def test_dump_refuses_raw_nan():
    doc = reports.make_report("design", {}, {})
    doc["results"] = {"bad": float("nan")}  # bypass jsonify on purpose
    with pytest.raises(ValueError):
        reports.dump_report(doc)


def _cli_report(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(list(argv))
    return json.loads(out.getvalue())


@pytest.fixture(scope="module")
def cli_documents(tmp_path_factory):
    """One report per subcommand and one error report per exit code."""
    tmp = tmp_path_factory.mktemp("reports")
    trace, sweep, field = (str(tmp / name) for name in ("trace.csv", "sweep.csv", "field.csv"))
    docs = [
        _cli_report("synth", "linear", "--out-csv", trace, "--seed", "3"),
        _cli_report("synth", "kerr", "--out-csv", sweep, "--points", "201"),
        _cli_report("synth", "field", "--out-csv", field, "--sigma-f", "5e6"),
        _cli_report("fit-linear", trace),
        _cli_report("fit-power-sweep", sweep),
        _cli_report("fit-kerr", sweep),
        _cli_report("fit-field", field),
        _cli_report("predict-field", "--f0", "7e9"),
        _cli_report("design"),
        _cli_report("fit-linear", str(tmp / "missing.csv")),
        _cli_report("fit-linear", trace, "--max-iterations", "1"),
        _cli_report("predict-field", "--d1", "2e-6"),
    ]
    assert [d["error"]["exit_code"] for d in docs if "error" in d] == [2, 3, 4]
    return docs


def _verdicts(doc, schema):
    """(package validator, jsonschema) acceptance of ``doc``."""
    try:
        reports.validate_report(doc, schema)
        ours = True
    except ReportSchemaError:
        ours = False
    return ours, Draft202012Validator(schema).is_valid(doc)


def _schema_for(doc):
    return reports.ERROR_SCHEMA if "error" in doc else reports.REPORT_SCHEMA


def test_schemas_use_only_keywords_the_validator_knows():
    known = {"$schema", "title", "type", "const", "required", "properties",
             "additionalProperties", "items"}

    def keywords(schema):
        yield from schema
        for sub in schema.get("properties", {}).values():
            yield from keywords(sub)
        for key in ("additionalProperties", "items"):
            if isinstance(schema.get(key), dict):
                yield from keywords(schema[key])

    for schema in (reports.REPORT_SCHEMA, reports.ERROR_SCHEMA):
        assert set(keywords(schema)) <= known


def test_validators_accept_every_cli_document(cli_documents):
    for doc in cli_documents:
        assert _verdicts(doc, _schema_for(doc)) == (True, True)
    # an integral float is an integer in draft 2020-12
    doc = copy.deepcopy(cli_documents[-1])
    doc["error"]["exit_code"] = 4.0
    assert _verdicts(doc, reports.ERROR_SCHEMA) == (True, True)


def _broken(doc, path, value=None, delete=False):
    doc = copy.deepcopy(doc)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if delete:
        del node[last]
    else:
        node[last] = value
    return doc


def test_validators_reject_the_same_documents(cli_documents):
    report = next(d for d in cli_documents if d["subcommand"] == "fit-field" and "error" not in d)
    error = next(d for d in cli_documents if "error" in d)
    group = next(iter(report["plot_data"]))
    cases = [
        _broken(report, ["results"], delete=True),
        _broken(report, ["tool", "version"], delete=True),
        _broken(error, ["error", "exit_code"], delete=True),
        _broken(report, ["extra"], 1),
        _broken(report, ["tool", "extra"], 1),
        _broken(report, ["plot_data", group, "extra"], []),
        _broken(report, ["plot_data", group, "x", "extra"], "x"),
        _broken(report, ["plot_data", group, "series", 0, "extra"], "x"),
        _broken(error, ["error", "extra"], 1),
        _broken(error, ["extra"], 1),
        _broken(report, ["subcommand"], 3),
        _broken(report, ["inputs"], []),
        _broken(report, ["warnings"], ["ok", 1]),
        _broken(report, ["plot_data", group, "x", "values", 0], "1.0"),
        _broken(error, ["error", "exit_code"], True),
        _broken(error, ["error", "exit_code"], 2.5),
        _broken(report, ["schema_version"], "0.9.0"),
        _broken(error, ["schema_version"], 1),
        _broken(report, ["plot_data", group], {"x": {"label": "x"}}),
        _broken(report, ["plot_data", group, "series"], {"label": "y", "values": []}),
        _broken(report, ["plot_data"], []),
    ]
    for doc in cases:
        assert _verdicts(doc, _schema_for(doc)) == (False, False)


def test_rejection_names_the_json_path(cli_documents):
    report = next(d for d in cli_documents if d["subcommand"] == "fit-field")
    group = next(iter(report["plot_data"]))
    doc = _broken(report, ["plot_data", group, "series", 0, "values", 1], "1.0")
    with pytest.raises(ReportSchemaError, match=rf"\$\.plot_data\.{group}\.series\[0\]\.values\[1\]"):
        reports.validate_report(doc)


def _json_dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


#: A document with json's corner cases, and values a report need not hold.
HAND_MADE = {
    "empty_list": [],
    "empty_dict": {},
    "nested": [[1.5, 2.5], [[-0.0, 1e16], []], [{"b": 1, "a": [0.1]}, {}]],
    "floats_with_others": [1.0, 2, True, False, None, np.float64(0.1), 3.5],
    "ints": [1, -2, 10**20],
    "strings": ["Ω ünïcode 😀", 'quote " back \\ slash', "tab\tline\nbreak", "\x00\x1f"],
    "extremes": [-0.0, 1e16, 5e-324, 1.7976931348623157e308, -1e-7],
    "scalars": {"z": 5e-324, "y": -0.0, "x": 1e16, "w": None, "v": True, "u": "Ω", "t": 7},
    "Ω\n key": {"b": [1.0], "a": (2.0, 3.0)},
    "int_keys": {2: [1.0, 2.0], 1: "one"},
}


def test_dump_report_writes_what_json_writes(cli_documents):
    for doc in [*cli_documents, HAND_MADE]:
        assert reports.dump_report(doc) == _json_dumps(doc)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_dump_report_refuses_non_finite_numbers_at_any_depth(bad):
    docs = [
        {"a": bad},
        {"a": [1.0, bad]},
        {"a": [1, bad]},
        {"a": [[1.0], [2.0, bad]]},
        {"a": {"b": {"c": bad}}},
        {"a": [{"b": [3.0, bad]}]},
        {1: [bad]},
    ]
    for doc in docs:
        with pytest.raises(ValueError) as ours:
            reports.dump_report(doc)
        with pytest.raises(ValueError) as theirs:
            _json_dumps(doc)
        assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize(
    "intruder, accepted",
    [(3, True), (True, False), (np.float64(0.5), True), ("1.0", False), (None, True)],
    ids=["int", "bool", "float64", "str", "None"],
)
@pytest.mark.parametrize("where", [0, 7, -1])
def test_mixed_plot_arrays_get_the_same_verdicts(cli_documents, intruder, accepted, where):
    report = next(d for d in cli_documents if d.get("subcommand") == "fit-linear")
    group = report["plot_data"]["magnitude"]
    axes = [(["x"], "x", group["x"]), (["series", 1], "series[1]", group["series"][1])]
    for axis, at, values in axes:
        index = where % len(values["values"])
        doc = _broken(report, ["plot_data", "magnitude", *axis, "values", index], intruder)
        assert _verdicts(doc, reports.REPORT_SCHEMA) == (accepted, accepted)
        if not accepted:
            with pytest.raises(ReportSchemaError) as exc:
                reports.validate_report(doc)
            assert str(exc.value) == (
                f"$.plot_data.magnitude.{at}.values[{index}]: "
                f"expected number or null, got {type(intruder).__name__}"
            )
