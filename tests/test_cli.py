import json
import subprocess
import sys
from fractions import Fraction

import pytest

from spliths.analysis import Options, analyze
from spliths.cli import (ConfigError, config_from_dict, config_to_dict,
                         emit_report, jsonify, load_config, main,
                         report_to_dict)
from spliths.exact import ComplexRational
from spliths.toric import ToricConfig, example_family, incidence


MODEL_DOC = {"d": 1, "n": 1, "u": [[1]],
             "lambda1": ["0"], "lambda2": ["0"], "lambda3": ["0"]}


def test_config_round_trip():
    cfg, opts = config_from_dict(MODEL_DOC)
    assert cfg.d == 1 and cfg.n == 1
    assert config_from_dict(config_to_dict(cfg))[0].columns == cfg.columns


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="u\\[1\\]"):
        config_from_dict({"d": 2, "n": 2, "u": [[1, 0], [1]]})
    with pytest.raises(ConfigError, match="lambda1\\[0\\]"):
        config_from_dict({"d": 1, "n": 1, "u": [[1]], "lambda1": ["1/0"]})
    with pytest.raises(ConfigError, match="span"):
        config_from_dict({"d": 1, "n": 1, "u": [[0]]})
    with pytest.raises(ConfigError, match="missing"):
        config_from_dict({"d": 1, "n": 1})
    with pytest.raises(ConfigError, match="unknown options"):
        config_from_dict(dict(MODEL_DOC, options={"resolution": 3}))


@pytest.mark.parametrize("doc", [5, None, "dnu", [MODEL_DOC]])
def test_config_must_be_an_object(doc):
    with pytest.raises(ConfigError, match="must be a JSON object"):
        config_from_dict(doc)


@pytest.mark.parametrize("doc, message", [
    ({"d": True, "n": True, "u": [[True]]}, "d and n"),
    (dict(MODEL_DOC, d=True), "d and n"),
    (dict(MODEL_DOC, n=True), "d and n"),
    (dict(MODEL_DOC, u=[[True]]), "u\\[0\\]"),
    ({"d": 2, "n": 1, "u": [[1], [False]]}, "u\\[1\\]"),
])
def test_config_rejects_booleans(doc, message):
    with pytest.raises(ConfigError, match=message):
        config_from_dict(doc)


@pytest.mark.parametrize("options, message", [
    ({"sweep_resolution": "abc"}, "sweep_resolution must be an integer"),
    ({"samples": True}, "samples must be an integer"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"soc_resolution": -1}, "soc_resolution must be >= 0"),
    ({"sweep_resolution": -720}, "sweep_resolution must be >= 0"),
    ({"samples": -3}, "samples must be >= 0"),
    ({"stratum_cap": -1}, "stratum_cap must be >= 0"),
])
def test_config_option_validation(options, message):
    with pytest.raises(ConfigError, match=message):
        config_from_dict(dict(MODEL_DOC, options=options))


def test_config_options_accept_integers():
    _, opts = config_from_dict(dict(MODEL_DOC, options={
        "seed": -4, "samples": 0, "stratum_cap": 3}))
    assert opts == Options(seed=-4, samples=0, stratum_cap=3)


def test_report_json_round_trips(tmp_path):
    cfg, _ = config_from_dict(MODEL_DOC)
    report = analyze(cfg, Options(samples=4))
    doc = report_to_dict(report)
    text = emit_report(doc, "json")
    parsed = json.loads(text)
    assert emit_report(parsed, "json") == text  # serialize-parse fixpoint
    assert parsed["verdicts"]["connected"]["status"] == "connected"
    assert parsed["verdicts"]["compact"]["status"] == "noncompact"
    assert parsed["verdicts"]["degeneracy"]["status"] == "nondegenerate"
    assert parsed["verdicts"]["freeness"]["status"] == "pass"


def test_text_report_one_line_per_verdict():
    cfg, _ = config_from_dict(MODEL_DOC)
    doc = report_to_dict(analyze(cfg, Options(samples=2)))
    text = emit_report(doc, "text")
    lines = [l for l in text.strip().splitlines()]
    names = {l.split(":")[0] for l in lines}
    assert {"cint", "compact", "connected", "degeneracy",
            "freeness"} <= names


def test_feasible_witnesses_revalidate_after_reload():
    fam = example_family(1, 1)
    doc = json.loads(emit_report(report_to_dict(analyze(fam)), "json"))
    cint = doc["verdicts"]["cint"]
    assert cint["status"] == "nonempty"
    a = [Fraction(e) for e in cint["witness"][0]]
    b = [ComplexRational(Fraction(e["re"]), Fraction(e["im"]))
         for e in cint["witness"][1]]
    inc = incidence(fam, a, b)
    assert inc.in_cone and inc.L == ()
    for wall in doc["verdicts"]["connected"]["detail"]["walls"]:
        if wall["status"] != "feasible":
            continue
        pa = [Fraction(e) for e in wall["point"][0]]
        pb = [ComplexRational(Fraction(e["re"]), Fraction(e["im"]))
              for e in wall["point"][1]]
        winc = incidence(fam, pa, pb)
        assert winc.in_cone and wall["wall"] in winc.L


def test_golden_model_report(tmp_path):
    import pathlib

    golden_path = pathlib.Path(__file__).parent / "data" / "model_report.json"
    cfg, _ = config_from_dict(MODEL_DOC)
    doc = report_to_dict(analyze(cfg, Options()))
    text = emit_report(doc, "json")
    assert golden_path.exists(), "golden fixture missing"
    assert text == golden_path.read_text()


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "spliths.cli"] + args,
                          capture_output=True, text=True, **kw)


def test_cli_example_analyze_pipeline(tmp_path):
    out = run_cli(["example", "--n", "1", "--lambda", "1"])
    assert out.returncode == 0
    cfg_path = tmp_path / "fam.json"
    cfg_path.write_text(out.stdout)
    res = run_cli(["analyze", str(cfg_path), "--format", "text"])
    assert res.returncode == 0
    assert "connected: not_connected" in res.stdout
    assert "freeness: pass" in res.stdout


def test_cli_fiber(tmp_path):
    out = run_cli(["example", "--n", "1", "--lambda", "1"])
    cfg_path = tmp_path / "fam.json"
    cfg_path.write_text(out.stdout)
    res = run_cli(["fiber", str(cfg_path), "--point", "1/8,0,0"])
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["orbit_count"] == 4
    assert len(doc["orbits"]) == 4
    # outside K: input error exit code
    res = run_cli(["fiber", str(cfg_path), "--point=-1,0,0"])
    assert res.returncode == 1


def test_cli_input_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["analyze", str(bad)]).returncode == 1
    bad.write_text(json.dumps({"d": 1, "n": 1, "u": [[1]],
                               "lambda1": ["1/0"]}))
    res = run_cli(["analyze", str(bad)])
    assert res.returncode == 1
    assert "lambda1[0]" in res.stderr
    for options in ({"sweep_resolution": "abc"}, {"samples": -1}):
        bad.write_text(json.dumps(dict(MODEL_DOC, options=options)))
        res = run_cli(["analyze", str(bad)])
        assert res.returncode == 1
        assert res.stderr.startswith("error: option ")
        assert len(res.stderr.splitlines()) == 1
    good = tmp_path / "good.json"
    good.write_text(json.dumps(MODEL_DOC))
    res = run_cli(["analyze", str(good), "--samples=-2"])
    assert res.returncode == 1
    assert res.stderr == "error: option samples must be >= 0, not -2\n"


def test_cli_non_object_config(tmp_path):
    bad = tmp_path / "bad.json"
    for text in ("5", "null", '"dnu"'):
        bad.write_text(text)
        res = run_cli(["analyze", str(bad)])
        assert res.returncode == 1
        assert res.stderr == "error: the configuration must be a JSON object\n"


def test_cli_verify_subcommands():
    assert main(["verify-core", "--count", "50"]) == 0
    assert main(["verify-lie"]) == 0
    assert main(["verify-sasaki", "--points", "10"]) == 0


def test_jsonify_rationals():
    assert jsonify(Fraction(3, 4)) == "3/4"
    assert jsonify(ComplexRational(1, Fraction(-1, 2))) == {"re": "1",
                                                            "im": "-1/2"}
    assert jsonify({"x": (Fraction(1), None, True)}) == {"x": ["1", None, True]}


FAM1_DOC = {"d": 2, "n": 1, "u": [[1], [1]], "lambda1": ["0", "-1"],
            "lambda2": ["0", "0"], "lambda3": ["0", "0"]}


def test_unknown_verdict_gives_exit_code_2(tmp_path, capsys):
    # with no stratum probed, freeness ends stratum-enumeration-capped
    path = tmp_path / "fam1.json"
    path.write_text(json.dumps(FAM1_DOC))
    assert main(["analyze", str(path), "--stratum-cap", "0"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdicts"]["freeness"]["status"] == "unknown"
    assert doc["verdicts"]["freeness"]["method"] == "stratum-enumeration-capped"


def test_decided_verdicts_give_exit_code_0(tmp_path, capsys):
    path = tmp_path / "fam1.json"
    path.write_text(json.dumps(FAM1_DOC))
    assert main(["analyze", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert not any(v["status"].startswith("unknown")
                   for v in doc["verdicts"].values())
