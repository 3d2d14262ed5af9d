import dataclasses
import importlib
import json
import os

import pytest

import gbei.cli
from gbei.cli import main
from gbei.formulas import generalized_bei
from gbei.graphs import complete_multipartite
from gbei.groebner import Ideal
from gbei.hilbert import hilbert_series
from gbei.rings import TermOrder
from gbei.verify import enumerate_specs


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run(argv, capsys)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# predict

def test_predict(capsys):
    code, doc, _ = run_json(["predict", "--m", "3", "--parts", "2,2"], capsys)
    assert code == 0
    assert doc["dim"] == 6 and doc["mult"] == 12
    assert doc["cd"] == {"exact": 7}


def test_predict_char_zero(capsys):
    code, doc, _ = run_json(
        ["predict", "--m", "3", "--parts", "2,2", "--char-zero"], capsys)
    assert code == 0
    assert doc["cd"] == {"lower": 7, "upper": 9}


def test_predict_to_file(tmp_path, capsys):
    out = tmp_path / "prediction.json"
    code, stdout, _ = run(
        ["predict", "--m", "2", "--parts", "1,2", "--output", str(out)], capsys)
    assert code == 0 and stdout == ""
    assert json.loads(out.read_text())["dim"] == 4


@pytest.mark.parametrize("target,message", [
    ("missing/x.json", "No such file or directory"),
    (".", "Is a directory"),
])
def test_unwritable_output_is_a_usage_error(target, message, tmp_path,
                                            capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("a stage ran before --output was checked")

    monkeypatch.setattr(gbei.cli, "predict", boom)
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--m", "2", "--parts", "2,2",
              "--output", str(tmp_path / target)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_output_replaces_an_existing_file(tmp_path, capsys):
    out = tmp_path / "prediction.json"
    out.write_text("x" * 10000)
    code, _, _ = run(
        ["predict", "--m", "2", "--parts", "1,2", "--output", str(out)], capsys)
    assert code == 0
    assert json.loads(out.read_text())["dim"] == 4


def test_output_to_a_device(capsys):
    code, stdout, _ = run(
        ["predict", "--m", "2", "--parts", "1,2", "--output", os.devnull], capsys)
    assert code == 0 and stdout == ""


def test_failed_run_leaves_no_output_file(tmp_path, capsys):
    out = tmp_path / "prediction.json"
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--m", "2", "--parts", "1,x", "--output", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_parts_reordered_with_note(capsys):
    code, doc, err = run_json(["predict", "--m", "2", "--parts", "2,1"], capsys)
    assert code == 0
    assert "reordered ascending to 1,2" in err
    assert doc["dim"] == 4


# ---------------------------------------------------------------------------
# verify and sweep

def test_verify(capsys):
    code, doc, _ = run_json(["verify", "--m", "2", "--parts", "1,2"], capsys)
    assert code == 0
    assert len(doc["invariants"]) == 9
    assert all(row["status"] == "match" for row in doc["invariants"])


def test_verify_exit_one_on_mismatch(capsys, monkeypatch):
    # "gbei.verify" the attribute is the re-exported function; grab the module
    verify_mod = importlib.import_module("gbei.verify")
    real = verify_mod.predict

    def skewed(spec, char_zero=False):
        pred = real(spec, char_zero)
        return dataclasses.replace(pred, dim=pred.dim + 1)

    monkeypatch.setattr(verify_mod, "predict", skewed)
    code, doc, _ = run_json(["verify", "--m", "2", "--parts", "1,1"], capsys)
    assert code == 1
    assert doc["invariants"][0]["status"] == "mismatch"


def test_verify_respects_caps(capsys):
    code, doc, _ = run_json(
        ["verify", "--m", "2", "--parts", "2,2", "--groebner-max-vars", "4"],
        capsys)
    assert code == 0
    assert doc["invariants"][0]["status"] == "skipped(groebner-cap)"


def test_sweep(capsys):
    code, doc, _ = run_json(["sweep", "--max-m", "2", "--max-n", "3"], capsys)
    assert code == 0
    assert len(doc["reports"]) == 3
    assert doc["summary"] == {"match": 27, "mismatch": 0, "skipped": 0}


def test_sweep_bounds_validated(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--max-m", "1", "--max-n", "3"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# hilbert

def test_hilbert(capsys):
    code, doc, _ = run_json(["hilbert", "--m", "2", "--parts", "1,2"], capsys)
    assert code == 0
    assert doc["match"] is True
    assert doc["predicted"] == doc["computed"]
    assert doc["predicted"]["numerator"] == [1, 2, 1]


def test_hilbert_over_cap(capsys):
    code, doc, err = run_json(
        ["hilbert", "--m", "2", "--parts", "1,2", "--groebner-max-vars", "4"],
        capsys)
    assert code == 0
    assert doc["computed"] is None and doc["match"] is None
    assert "oracle series skipped" in err


def test_hilbert_reads_the_series_off_the_floor(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(gbei.cli, "hilbert_series", calls.append)
    code, doc, _ = run_json(["hilbert", "--m", "3", "--parts", "3,3"], capsys)
    assert code == 0 and doc["match"] is True
    assert calls == []  # J's basis stopped at the decomposition's floor


@pytest.mark.parametrize("order", ["lex-row-major", "lex-column-major"])
def test_hilbert_equals_the_plain_series(order, capsys):
    for spec in enumerate_specs(3, 4):
        _, doc, _ = run_json(["hilbert", "--m", str(spec.m), "--parts",
                              ",".join(map(str, spec.parts)), "--order", order], capsys)
        J = generalized_bei(spec.m, complete_multipartite(spec))
        plain = hilbert_series(J.initial_ideal(TermOrder.by_name(order, J.ring)))
        assert doc["computed"] == {**plain.to_json(), "text": plain.text()}, spec


def test_hilbert_without_containment_takes_the_series_of_in_j(capsys, monkeypatch):
    # first-row variable components do not hold J, so no floor is passed
    verify_module = importlib.import_module("gbei.verify")
    original, calls = verify_module.prime_component, []
    series = gbei.cli.hilbert_series

    def first_row(m, G, T, prime):
        P = original(m, G, T, prime)
        return P if not T else Ideal(P.ring, [P.ring.variable(1, j) for j in T])

    monkeypatch.setattr(verify_module, "prime_component", first_row)
    monkeypatch.setattr(gbei.cli, "hilbert_series",
                        lambda ideal: calls.append(ideal) or series(ideal))
    code, doc, _ = run_json(["hilbert", "--m", "3", "--parts", "1,2"], capsys)
    assert code == 0 and doc["match"] is True
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# cutsets

def test_cutsets(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 3, "edges": [[1, 2], [2, 3]]}))
    code, doc, _ = run_json(["cutsets", "--graph", str(path)], capsys)
    assert code == 0
    assert doc == {"n": 3, "cutSets": [[], [2]]}


def test_cutsets_missing_file(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cutsets", "--graph", "/no/such/file.json"])
    assert exc.value.code == 2


def test_cutsets_cap_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 17, "edges": []}))
    with pytest.raises(SystemExit) as exc:
        main(["cutsets", "--graph", str(path)])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# argument handling

@pytest.mark.parametrize("argv", [
    [],
    ["predict", "--m", "2", "--parts", "a,b"],
    ["predict", "--m", "2", "--parts", "0,2"],
    ["predict", "--m", "1", "--parts", "1,2"],
    ["predict", "--m", "2", "--parts", "1,2", "--prime", "1"],
    ["verify", "--m", "2", "--parts", "1,2", "--order", "grevlex"],
    ["verify", "--m", "2", "--parts", "2,2", "--prime", "4"],
    ["verify", "--m", "2", "--parts", "2,2", "--prime", "6"],
    ["verify", "--m", "2", "--parts", "1,1", "--prime", str(2**64 + 13)],
    ["hilbert", "--m", "2", "--parts", "1,1", "--prime", "4"],
    ["sweep", "--max-m", "2", "--max-n", "2", "--prime", "6"],
])
def test_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [
    ["verify", "--m", "2", "--parts", "1,2"],
    ["sweep", "--max-m", "2", "--max-n", "2"],
    ["hilbert", "--m", "2", "--parts", "1,2"],
])
@pytest.mark.parametrize("cap", [["--groebner-max-vars", "-1"],
                                 ["--hochster-max-vars", "-5"]])
def test_negative_caps_are_usage_errors(command, cap, capsys):
    # a negative cap would skip stages silently and still exit 0
    with pytest.raises(SystemExit) as exc:
        main(command + cap)
    assert exc.value.code == 2
    assert "must be at least 0" in capsys.readouterr().err


def test_zero_cap_skips_the_stage(capsys):
    code, doc, err = run_json(["hilbert", "--m", "2", "--parts", "1,2",
                               "--groebner-max-vars", "0"], capsys)
    assert code == 0
    assert doc["computed"] is None
    assert "exceeds the Groebner cap" in err


def test_prime_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("GBEI_PRIME", "101")
    code, doc, _ = run_json(["verify", "--m", "2", "--parts", "1,1"], capsys)
    assert code == 0
    assert doc["prime"] == 101


def test_bad_environment_prime(capsys, monkeypatch):
    monkeypatch.setenv("GBEI_PRIME", "banana")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--m", "2", "--parts", "1,1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("env", ["4", "6"])
def test_composite_environment_prime(env, capsys, monkeypatch):
    monkeypatch.setenv("GBEI_PRIME", env)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--m", "2", "--parts", "2,2"])
    assert exc.value.code == 2


def test_verify_is_exact_for_a_61_bit_prime(capsys):
    # a Mersenne prime past the range where fixed-width products are exact
    code, doc, _ = run_json(["verify", "--m", "2", "--parts", "2,2",
                             "--prime", str(2**61 - 1)], capsys)
    assert code == 0
    assert doc["prime"] == 2**61 - 1
    statuses = {row["name"]: row["status"] for row in doc["invariants"]}
    assert statuses["depth"] == "match" and statuses["reg"] == "match"


def test_explicit_prime_wins_over_environment(capsys, monkeypatch):
    monkeypatch.setenv("GBEI_PRIME", "101")
    code, doc, _ = run_json(
        ["verify", "--m", "2", "--parts", "1,1", "--prime", "7"], capsys)
    assert code == 0
    assert doc["prime"] == 7


def test_internal_error_is_exit_three(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(gbei.cli, "verify", boom)
    code, _, err = run(["verify", "--m", "2", "--parts", "1,1"], capsys)
    assert code == 3
    assert "synthetic failure" in err


@pytest.mark.parametrize("doc", [
    {"n": 3, "edges": 5},
    {"n": 3, "edges": [5]},
    {"n": 3, "edges": [[1, None]]},
    {"n": 3, "edges": [[1.9, 2]]},
    {"n": 3, "edges": [["1", "2"]]},
    {"n": True, "edges": []},
])
def test_cutsets_malformed_graph_is_a_usage_error(doc, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["cutsets", "--graph", str(path)])
    assert exc.value.code == 2
