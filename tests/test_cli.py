import json

import pytest

from iqgklo.cli import (
    SCHEMA_ID, instance_from_description, load_config, main,
)
from iqgklo import cli, delta, oracle, relations, scalars
from iqgklo.errors import (
    IncompatibleOrientation, NonSimplePole, NotDominant, ParseError,
    TauNotInvolution, ValidationError,
)
from iqgklo.relations import RelationChecker
from iqgklo.scalars import Scalar


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_structured(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    names = [e["name"] for e in doc["catalog"]]
    assert len(names) == 10 and "qsA2-v11" in names


def test_validate_instance_text(capsys):
    code, out, _ = run_cli(capsys, "validate", "--instance", "qsA4")
    assert code == 0
    assert "valid: True" in out


def test_check_text_marks_each_record(capsys):
    # each result starts with "- " and its other keys sit under it, so
    # two records of one list do not run together
    code, out, _ = run_cli(capsys, "check", "--instance", "qsA4",
                           "--relations", "BB3")
    assert code == 0
    lines = out.splitlines()
    for pair in ("2,3", "3,2"):
        at = lines.index(f"  - check: BB3[{pair}]")
        assert lines[at + 1] == "    status: pass"
        assert lines[at + 2].startswith("    seconds: ")
    at = lines.index("  involution_cycles:")
    assert lines[at + 1:at + 3] == ["    - (1, 4)", "    - (2, 3)"]


def test_catalog_text_marks_each_instance(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    lines = out.splitlines()
    assert lines[:3] == ["schema: iqgklo-report/2", "catalog:",
                         "  - name: sA1-v1-t0"]
    assert sum(line.startswith("  - name: ") for line in lines) == 10
    # a split instance has no involution cycle: an empty list, not a key
    # over nothing
    assert lines[4] == "    involution_cycles: []"


def test_text_nests_records_in_records():
    doc = {"results": [
        {"check": "BB2[1,1]", "discrepancies": [
            {"support": {"u": "w1"}, "lhs": "1"}, {"support": {}}]},
        {"check": "HB"}], "seed": 0}
    assert list(cli._text_lines(doc)) == [
        "results:",
        "  - check: BB2[1,1]",
        "    discrepancies:",
        "      - support:",
        "          u: w1",
        "        lhs: 1",
        "      - support: {}",
        "  - check: HB",
        "seed: 0",
    ]


def test_validate_unknown_instance(capsys):
    code, _, err = run_cli(capsys, "validate", "--instance", "nope")
    assert code == 2
    assert "error:" in err


def test_image_single_generator(capsys):
    code, out, _ = run_cli(capsys, "image", "B1",
                           "--instance", "sA1-v1-t0",
                           "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert list(doc["images"]) == ["B1"]
    assert "delta[" in doc["images"]["B1"]
    assert doc["images"]["B1"] == (
        "delta[u=q^-2*w:1:1^2]((-1*q^2*w:1:1^2*z:1:1*zt:1"
        " + -1*q^2*w:1:1^2*z:1:2*zt:1 + 1*q^4*z:1:1*z:1:2*zt:1"
        " + 1*w:1:1^4*zt:1)/(-1*q^4*w:1:1^2 + 1*q^4*w:1:1^6 + 1*w:1:1^2"
        " + -1*w:1:1^6))d[1,1]^-1"
        " + delta[u=q^-2*w:1:1^-2]((1*q^2*w:1:1^2*zt:1"
        " + -1*q^4*w:1:1^4*z:1:1*zt:1 + -1*q^4*w:1:1^4*z:1:2*zt:1"
        " + 1*q^6*w:1:1^6*z:1:1*z:1:2*zt:1)/(1*1 + -1*q^4 + 1*q^4*w:1:1^4"
        " + -1*w:1:1^4))d[1,1]")


def test_image_unknown_generator(capsys):
    code, _, err = run_cli(capsys, "image", "B9",
                           "--instance", "sA1-v1-t0")
    assert code == 2
    assert "unknown generator" in err


def test_check_pass_and_report_shape(capsys):
    code, out, _ = run_cli(capsys, "check", "--instance", "sA1-v1-t0",
                           "--relations", "BB2,HB", "--trials", "5",
                           "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["series_soundness"] == "pass"
    assert doc["oracle_concordance"] == "pass"
    assert {r["check"] for r in doc["results"]} == {"BB2[1,1]", "HB[1,1]"}
    assert all(r["status"] == "pass" for r in doc["results"])


def test_check_failure_exit_code(capsys):
    code, out, _ = run_cli(capsys, "check", "--instance", "qsA3-t0",
                           "--relations", "BB1",
                           "--bb1-convention", "i",
                           "--format", "structured")
    assert code == 1
    doc = json.loads(out)
    assert any(r["status"] == "fail" for r in doc["results"])


def test_check_aborted_relation_reports_failure(capsys, monkeypatch):
    # an abort inside the symbolic check must surface as a failed check in
    # the report (exit 1), not escape from the oracle cross-check (exit 2)
    original = RelationChecker.eval_pair

    def eval_pair(self, kind, i, j):
        if kind == "BB2":
            raise NonSimplePole("forced double pole")
        return original(self, kind, i, j)
    monkeypatch.setattr(RelationChecker, "eval_pair", eval_pair)
    code, out, _ = run_cli(capsys, "check", "--instance", "sA1-v1-t0",
                           "--format", "structured")
    assert code == 1
    doc = json.loads(out)
    bb2 = next(r for r in doc["results"] if r["check"] == "BB2[1,1]")
    assert bb2["status"] == "fail"
    assert bb2["detail"].startswith("aborted:")


def test_check_aborted_expansion_fails_series_soundness(capsys, monkeypatch):
    # the gamma of the aborted check stays logged, and the series pass
    # expands it again: that must fail soundness (exit 1 with a report),
    # not escape from the verb (exit 2 with none)
    def expand_by_residues(gamma):
        raise NonSimplePole("forced double pole")
    monkeypatch.setattr(relations, "expand_by_residues", expand_by_residues)
    monkeypatch.setattr(delta, "expand_by_residues", expand_by_residues)
    code, out, _ = run_cli(capsys, "check", "--instance", "sA1-v1-t0",
                           "--relations", "BB2", "--format", "structured")
    assert code == 1
    doc = json.loads(out)
    assert doc["series_soundness"] == "fail"
    assert doc["series_soundness_aborted"] == \
        "gamma 0 (from BB2[1,1]): NonSimplePole: forced double pole"
    assert "oracle_concordance_aborted" not in doc
    (bb2,) = doc["results"]
    assert bb2["status"] == "fail" and bb2["detail"].startswith("aborted:")


def test_check_aborted_expansion_past_the_first_names_its_gamma(
        capsys, monkeypatch):
    # the third residue expansion aborts, in its relation check and again
    # in the series pass: the reason names it by its place among all the
    # logged gammas and by the case that logged it
    expanded = []

    def third_aborts(gamma):
        expanded.append(gamma)
        if len(expanded) >= 3 and gamma is expanded[2]:
            raise NonSimplePole("forced double pole")
        return original(gamma)
    original = relations.expand_by_residues
    monkeypatch.setattr(relations, "expand_by_residues", third_aborts)
    monkeypatch.setattr(delta, "expand_by_residues", third_aborts)
    code, out, _ = run_cli(capsys, "check", "--instance", "qsA3-t1",
                           "--format", "structured")
    assert code == 1
    doc = json.loads(out)
    assert doc["series_soundness_aborted"] == \
        "gamma 2 (from BB1[3,1]): NonSimplePole: forced double pole"
    assert doc["oracle_concordance"] == "pass"
    assert [r["check"] for r in doc["results"] if r["status"] != "pass"] \
        == ["BB1[3,1]"]


def test_check_bad_specialization_fails_oracle_concordance(capsys,
                                                           monkeypatch):
    # every variable drawn as 1 puts a zero in a denominator of every
    # attempt, so the oracle runs out of retries: concordance fails (exit 1
    # with a report), the verb does not
    def all_ones(rng, names, n_test_exps):
        return [(1, 1)] * len(names)
    monkeypatch.setattr(oracle, "_random_points", all_ones)
    code, out, _ = run_cli(capsys, "check", "--instance", "sA1-v1-t0",
                           "--relations", "BB2", "--trials", "2",
                           "--format", "structured")
    assert code == 1
    doc = json.loads(out)
    assert doc["oracle_concordance"] == "fail"
    assert doc["oracle_concordance_aborted"] == \
        "BB2[1,1]: BadSpecialization: exceeded 200 retries at trial 0"
    assert doc["series_soundness"] == "pass"
    assert "series_soundness_aborted" not in doc
    assert [r["status"] for r in doc["results"]] == ["pass"]


def test_check_series_mismatch_fails_soundness(capsys, monkeypatch):
    # an expansion that does not match its truncated series fails the
    # soundness pass without an abort reason (exit 1 with a report)
    monkeypatch.setattr(cli, "truncated_series_check",
                        lambda gamma, expansion: False)
    code, out, _ = run_cli(capsys, "check", "--instance", "sA1-v1-t0",
                           "--relations", "BB2", "--format", "structured")
    assert code == 1
    doc = json.loads(out)
    assert doc["series_soundness"] == "fail"
    assert "series_soundness_aborted" not in doc
    assert doc["oracle_concordance"] == "pass"
    assert [r["status"] for r in doc["results"]] == ["pass"]


def test_check_oracle_disagreement_fails_concordance(capsys, monkeypatch):
    # an oracle verdict that differs from the symbolic one fails the
    # concordance without an abort reason (exit 1 with a report)
    monkeypatch.setattr(cli, "randomized_equal",
                        lambda lhs, rhs, trials, seed: (False, 1))
    code, out, _ = run_cli(capsys, "check", "--instance", "sA1-v1-t0",
                           "--relations", "BB2", "--format", "structured")
    assert code == 1
    doc = json.loads(out)
    assert doc["oracle_concordance"] == "fail"
    assert "oracle_concordance_aborted" not in doc
    assert doc["series_soundness"] == "pass"
    assert [r["status"] for r in doc["results"]] == ["pass"]


def test_check_builds_each_pair_once(capsys, monkeypatch):
    calls = []
    original = RelationChecker.eval_pair

    def eval_pair(self, kind, i, j):
        calls.append((kind, i, j))
        return original(self, kind, i, j)
    monkeypatch.setattr(RelationChecker, "eval_pair", eval_pair)
    code, out, _ = run_cli(capsys, "check", "--instance", "qsA2-v11",
                           "--trials", "2", "--format", "structured")
    assert code == 0
    pairwise = [r["check"] for r in json.loads(out)["results"]
                if r["check"].split("[")[0] not in ("HH", "HB", "DEG")]
    assert pairwise
    assert sorted(f"{k}[{i},{j}]" for k, i, j in calls) == sorted(pairwise)


def test_check_decodes_one_layout_per_factor(capsys, monkeypatch):
    # every factor key is one object, so its evaluation layout is decoded
    # once per check, however many scalars and trials share it; a fresh
    # factor table, and a fresh raw-binomial table in front of it, keep
    # factors and layouts that other tests made out of the count
    monkeypatch.setattr(scalars, "_FACTORS", {})
    monkeypatch.setattr(scalars, "_BINOMIALS", {})
    decoded, keys, strays = [], set(), []
    eval_layout, eval_plan = scalars._eval_layout, Scalar.eval_plan

    def count_layout(terms):
        decoded.append(terms)
        return eval_layout(terms)

    def count_parts(self):
        plan = eval_plan(self)
        for key, p in plan[3].items():
            factor = scalars._FACTORS.get(key)
            if factor is p:
                keys.add(key)
            elif factor is not None:
                strays.append(key)
        return plan
    monkeypatch.setattr(scalars, "_eval_layout", count_layout)
    monkeypatch.setattr(Scalar, "eval_plan", count_parts)
    code, _, _ = run_cli(capsys, "check", "--instance", "qsA2-v11",
                         "--format", "structured")
    assert code == 0
    factor_terms = {id(p.terms) for p in scalars._FACTORS.values()}
    assert keys and not strays
    assert sum(id(t) in factor_terms for t in decoded) == len(keys)


def test_check_expands_each_logged_gamma_once(capsys, monkeypatch):
    # the series pass checks the expansions that the relation checks
    # logged, so no gamma is expanded a second time, and it reads gamma's
    # polar part off its factors, so no other current is expanded either
    expanded, reports = [], []
    original = relations.expand_by_residues

    def counted(gamma):
        expanded.append(gamma)
        return original(gamma)

    def run(self, kinds=None):
        reports.append(run_(self, kinds))
        return reports[-1]
    run_ = RelationChecker.run
    monkeypatch.setattr(relations, "expand_by_residues", counted)
    monkeypatch.setattr(delta, "expand_by_residues", counted)
    monkeypatch.setattr(RelationChecker, "run", run)
    code, out, _ = run_cli(capsys, "check", "--instance", "qsA2-v11",
                           "--trials", "2", "--format", "structured")
    assert code == 0 and json.loads(out)["series_soundness"] == "pass"
    (report,) = reports
    logged = [entry for r in report.results for entry in r.gammas]
    assert len(logged) > 1
    assert expanded == [g for g, _ in logged]
    assert all(e is not None for _, e in logged)


def test_check_series_pass_reads_the_logged_expansion(capsys, monkeypatch):
    # scaling one coefficient of one logged expansion, after the relation
    # checks used it, fails the soundness pass
    original = cli._series_soundness

    def scaled(results):
        gammas = next(r.gammas for r in results if r.gammas)
        gamma, ((a, coeff), *rest) = gammas[0]
        gammas[0] = gamma, [(a, coeff * Scalar.const(2)), *rest]
        return original(results)
    monkeypatch.setattr(cli, "_series_soundness", scaled)
    code, out, _ = run_cli(capsys, "check", "--instance", "sA1-v1-t0",
                           "--relations", "BB2", "--format", "structured")
    assert code == 1
    doc = json.loads(out)
    assert doc["series_soundness"] == "fail"
    assert "series_soundness_aborted" not in doc
    assert [r["status"] for r in doc["results"]] == ["pass"]


def test_check_empty_relation_list_is_rejected_by_flag_and_config(
        capsys, tmp_path):
    # an empty kind list names no check, from the command line as from a
    # config file, and both exit 2 with one message
    config = tmp_path / "empty.json"
    config.write_text(json.dumps({"schema": SCHEMA_ID,
                                  "catalog": "sA1-v1-t0", "relations": []}))
    for argv in (("--instance", "sA1-v1-t0", "--relations", ""),
                 ("--config", str(config))):
        code, out, err = run_cli(capsys, "check", *argv)
        assert code == 2 and not out
        assert err == "error: relations must name at least one kind\n"


def test_check_unknown_relation_kind(capsys):
    code, _, err = run_cli(capsys, "check", "--instance", "sA1-v1-t0",
                           "--relations", "BOGUS")
    assert code == 2
    assert "unknown relation kinds" in err


@pytest.mark.parametrize("verb", ["check", "validate"])
@pytest.mark.parametrize("name, kinds, empty", [
    ("sA1-v1-t0", ["BB3"], "['BB3']"),
    ("sA2-v11-t00", ["Serre3"], "['Serre3']"),
    ("sA2-v11-t10", ["BB1"], "['BB1']"),
    ("sA1-v1-t0", ["HB", "BB3"], "['BB3']"),
], ids=["BB3-on-A1", "Serre3-on-split-A2", "BB1-on-split-A2", "HB-and-BB3"])
def test_kind_without_a_case_is_rejected(capsys, tmp_path, verb, name, kinds,
                                         empty):
    # a kind that selects no case would run no check of it, and the
    # report would still read pass
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schema": SCHEMA_ID, "catalog": name,
                                    "relations": kinds}))
    runs = [("--config", str(cfg_path))]
    if verb == "check":
        runs.append(("--instance", name, "--relations", ",".join(kinds)))
    for argv in runs:
        code, out, err = run_cli(capsys, verb, *argv)
        assert code == 2 and out == ""
        assert err == f"error: relation kinds {empty} have no case on " \
                      f"{name}\n"


def test_identities_verb(capsys):
    code, out, _ = run_cli(capsys, "identities", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["results"]) == 13
    assert all(r["status"] == "pass" for r in doc["results"])


def test_check_multiplicity_three(capsys, tmp_path):
    # A1 with framing 6 has multiplicity 3; its series pass must finish
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "schema": SCHEMA_ID,
        "instance": {"type": "A", "rank": 1, "framing": [6], "shift": [0],
                     "theta": [0]},
    }))
    code, out, _ = run_cli(capsys, "check", "--config", str(cfg_path),
                           "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["instance"]["multiplicities"] == [3]
    assert doc["series_soundness"] == "pass"
    assert doc["oracle_concordance"] == "pass"
    assert all(r["status"] == "pass" for r in doc["results"])


def test_load_config_inline_instance(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "schema": SCHEMA_ID,
        "instance": {"type": "A", "rank": 2, "tau": [[1, 2]],
                     "framing": [1, 1], "shift": [0, 0]},
        "relations": ["BB3"], "trials": 5, "seed": 7,
    }))
    cfg = load_config(str(cfg_path))
    inst = cfg["instance"]
    assert inst.diagram.rank == 2 and inst.diagram.t(1) == 2
    assert inst.mult == (1, 1)       # recomputed, never read from input
    assert cfg["trials"] == 5 and cfg["seed"] == 7


def test_config_flag_precedence(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "schema": SCHEMA_ID, "catalog": "sA1-v1-t0",
        "relations": ["BB2"], "trials": 4, "seed": 9,
    }))
    code, out, _ = run_cli(capsys, "check", "--config", str(cfg_path),
                           "--trials", "6", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    # config values survive; explicit flags win
    assert doc["trials"] == 6 and doc["seed"] == 9


def test_load_config_rejects_bad_schema():
    with pytest.raises(ParseError):
        load_config(text=json.dumps({"schema": "other/9"}))


def test_load_config_rejects_bad_json():
    with pytest.raises(ParseError):
        load_config(text="{not json")


def test_load_config_requires_source():
    with pytest.raises(ParseError):
        load_config(text=json.dumps({"schema": SCHEMA_ID}))


def test_inline_instance_validation():
    with pytest.raises(ValidationError):
        instance_from_description({"type": "D", "rank": 4,
                                   "framing": [0, 0, 0, 2], "shift": [0] * 4})
    with pytest.raises(ValidationError):
        instance_from_description({"type": "A", "rank": 3,
                                   "tau": [[1, 2, 3]],
                                   "framing": [1, 0, 1], "shift": [0, 0, 0]})


def test_inline_instance_adjacent_involution():
    inst = instance_from_description({
        "type": "A", "rank": 4, "tau": [[1, 4], [2, 3]],
        "framing": [1, 0, 0, 1], "shift": [0, 0, 0, 0]})
    assert inst.diagram.t(2) == 3 and inst.mult == (1, 1, 1, 1)


def _inline(**fields):
    desc = {"type": "A", "rank": 1, "framing": [2], "shift": [0]}
    desc.update(fields)
    return {"schema": SCHEMA_ID, "instance": desc}


def _without_framing():
    doc = _inline()
    del doc["instance"]["framing"]
    return doc


@pytest.mark.parametrize("doc", [
    _without_framing(),
    _inline(rank="x"),
    _inline(framing=["a"]),
    {"schema": SCHEMA_ID, "catalog": "sA1-v1-t0", "trials": "many"},
    [SCHEMA_ID, "sA1-v1-t0"],
    _inline(rank=2, tau=[[1, "b"]], framing=[1, 1], shift=[0, 0]),
    _inline(rank=2, framing=[1, 1], shift=[0, 0], orientation=5),
    _inline(rank=2, framing=[1, 1], shift=[0, 0], theta=[0]),
    _inline(rank=2, framing=[1, 1], shift=[0, 0], theta=[0, 0, 1]),
    _inline(rank=2, framing=[1, 1], shift=[0, 0], orientation=[[1, 2, 3]]),
    _inline(rank=2, framing=[1, 1], shift=[0, 0], orientation=[[1]]),
    _inline(rank=2, tau=[[1, 2]], framing=[0, 1], shift=[-2, 2]),
    _inline(rank=2000),
    _inline(rank=10**21),
    _inline(rank=0, framing=[], shift=[]),
    _inline(tau=[[1, 1]]),
], ids=["no-framing", "rank-x", "framing-a", "trials-many", "array",
        "cycle-entry", "orientation", "theta-short", "theta-long",
        "edge-triple", "edge-single", "tau-asymmetric-mult", "rank-large",
        "rank-huge", "rank-zero", "cycle-fixes-node"])
def test_malformed_config_is_input_error(capsys, tmp_path, doc):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "check", "--config", str(cfg_path))
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_rank_checked_before_anything_of_its_size_is_built(monkeypatch):
    def built(*args):
        raise AssertionError("built before the rank was checked")
    monkeypatch.setattr(cli, "_tau_from_cycles", built)
    monkeypatch.setattr(cli, "cartan_A", built)
    with pytest.raises(ValidationError):
        instance_from_description(_inline(rank=2000)["instance"])


@pytest.mark.parametrize("verb", ["validate", "check"])
def test_tau_asymmetric_multiplicities_name_the_pair(capsys, tmp_path, verb):
    # quasi-split A2, framing (0,1), shift (-2,2): v = (1,0)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        _inline(rank=2, tau=[[1, 2]], framing=[0, 1], shift=[-2, 2])))
    code, out, err = run_cli(capsys, verb, "--config", str(cfg_path))
    assert code == 2 and out == ""
    assert "involution pair 1,2" in err and "v_1 = 1, v_2 = 0" in err


def test_tau_asymmetric_framing_with_equal_multiplicities_passes(
        capsys, tmp_path):
    # framing (1,0), shift (0,-1): v = (1,1)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        _inline(rank=2, tau=[[1, 2]], framing=[1, 0], shift=[0, -1])))
    code, out, _ = run_cli(capsys, "check", "--config", str(cfg_path),
                           "--format", "structured")
    doc = json.loads(out)
    assert code == 0 and doc["instance"]["multiplicities"] == [1, 1]


@pytest.mark.parametrize("flags", [
    ("--trials", "0"), ("--trials", "-3"),
])
def test_check_rejects_vacuous_gate_flags(capsys, flags):
    code, out, err = run_cli(capsys, "check", "--instance", "sA1-v1-t0",
                             "--relations", "HB", *flags)
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("verb", ["check", "validate"])
@pytest.mark.parametrize("key, value", [
    ("order", -1), ("trials", 0), ("trials", -3), ("bb1_convention", "x"),
    ("relations", []),
])
def test_check_rejects_vacuous_gate_config(capsys, tmp_path, key, value,
                                           verb):
    # validate applies the ranges that check applies
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schema": SCHEMA_ID,
                                    "catalog": "sA1-v1-t0",
                                    "relations": ["HB"], key: value}))
    code, out, err = run_cli(capsys, verb, "--config", str(cfg_path))
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("verb", ["check", "validate"])
def test_config_rejects_unknown_keys(capsys, tmp_path, verb):
    # a misspelt "seed" would otherwise run silently with seed 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schema": SCHEMA_ID,
                                    "catalog": "sA1-v1-t0", "seeed": 4,
                                    "relations": ["HB"], "extra": 1,
                                    "order": 8}))
    code, out, err = run_cli(capsys, verb, "--config", str(cfg_path))
    assert code == 2 and out == ""
    assert err.startswith("error:")
    assert "['extra', 'order', 'seeed']" in err


@pytest.mark.parametrize("verb", ["check", "validate"])
def test_config_rejects_catalog_and_instance_together(capsys, tmp_path,
                                                      verb):
    # the catalog name would otherwise win over the inline instance
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "schema": SCHEMA_ID, "catalog": "sA1-v1-t0", "relations": ["HB"],
        "instance": {"type": "A", "rank": 1, "framing": [4],
                     "shift": [0]}}))
    code, out, err = run_cli(capsys, verb, "--config", str(cfg_path))
    assert code == 2 and out == ""
    assert "'catalog' name or an inline 'instance', not both" in err


@pytest.mark.parametrize("argv", [
    ("validate", "--instance", "qsA4", "--trials", "5"),
    ("validate", "--instance", "qsA4", "--bb1-convention", "i"),
    ("image", "B1", "--instance", "sA1-v1-t0", "--seed", "3"),
    ("image", "B1", "--instance", "sA1-v1-t0", "--order", "3"),
    ("identities", "--order", "3"),
    ("check", "--instance", "sA1-v1-t0", "--order", "3"),
])
def test_oracle_options_belong_to_check_only(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["check", "validate"])
def test_inline_instance_rejects_unknown_keys(capsys, tmp_path, verb):
    # a misspelt "theta" would otherwise validate with theta 0; "name"
    # is an instance key, so it is not named
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_inline(thetaa=[1], extra=0, name="x")))
    code, out, err = run_cli(capsys, verb, "--config", str(cfg_path))
    assert code == 2 and out == ""
    assert "unknown instance keys ['extra', 'thetaa']" in err


@pytest.mark.parametrize("verb", ["check", "validate"])
@pytest.mark.parametrize("tau, code", [
    ({}, 2), (0, 2), ("", 2), (False, 2), (None, 0), ([], 0),
])
def test_only_a_null_or_list_tau_is_read(capsys, tmp_path, verb, tau, code):
    # null and the empty cycle list are the identity; a falsy non-list is
    # an input error, not "no involution"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_inline(tau=tau)))
    got, out, err = run_cli(capsys, verb, "--config", str(cfg_path),
                            "--format", "structured")
    assert got == code
    if code:
        assert out == "" and err.startswith("error: tau must be a list")
    else:
        assert json.loads(out)["instance"]["involution_cycles"] == []


@pytest.mark.parametrize("verb", ["check", "validate", "image"])
def test_config_and_instance_flags_together_are_rejected(capsys, tmp_path,
                                                         verb):
    # the config would otherwise win over the catalog name
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schema": SCHEMA_ID, "catalog": "qsA4"}))
    code, out, err = run_cli(capsys, verb, "--config", str(cfg_path),
                             "--instance", "sA1-v1-t0")
    assert code == 2 and out == ""
    assert "give one of --instance NAME and --config FILE" in err


def _bad_name(name):
    return json.dumps(_inline(name=name)).encode()


@pytest.mark.parametrize("verb", ["check", "validate"])
@pytest.mark.parametrize("raw, message", [
    (b'\xff\xfe{"schema": "iqgklo-config/1", "catalog": "qsA4"}',
     "config is not UTF-8 text"),
    (b"[" * 100_000 + b"]" * 100_000, "config is nested too deeply"),
    *((_bad_name(name), "name must be a non-empty string")
      for name in (5, {"a": 1}, "", None, ["x"])),
], ids=["not-utf8", "deeply-nested", "name-int", "name-object", "name-empty",
        "name-null", "name-list"])
def test_config_input_error_names_its_cause(capsys, tmp_path, verb, raw,
                                            message):
    # neither a decode error nor a recursion error may escape as a crash
    # (exit 1, which means a relation failed), and a name that is not a
    # string must not reach the report
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(raw)
    code, out, err = run_cli(capsys, verb, "--config", str(cfg_path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("doc, error, message", [
    (_inline(rank=3, tau=[[1, 5]], framing=[1, 1, 1], shift=[0, 0, 0]),
     ValidationError, "involution cycle [1, 5] leaves 1..3"),
    ({"schema": SCHEMA_ID, "instance": 5},
     ValidationError, "an inline instance must be a JSON object"),
    (None, ParseError, "cannot read config"),
    (_inline(rank=3, tau=[[1, 2], [2, 3]], framing=[1, 1, 1],
             shift=[0, 0, 0]),
     TauNotInvolution, "tau is not a permutation"),
    (_inline(framing=[-1]), NotDominant, "framing pairings (-1,)"),
    (_inline(rank=2, framing=[1, 1], shift=[0, 0],
             orientation=[[1, 2], [2, 1]]),
     IncompatibleOrientation, "oriented twice"),
    (_inline(rank=2, framing=[1, 1], shift=[0, 0], theta=[2, 0]),
     ValidationError, "marking at node 1 must be 0 or 1"),
], ids=["cycle-leaves-nodes", "instance-not-object", "missing-file",
        "cycles-overlap", "framing-negative", "edge-oriented-twice",
        "theta-not-0-or-1"])
def test_config_validation_names_its_cause(capsys, tmp_path, doc, error,
                                           message):
    cfg_path = tmp_path / "cfg.json"
    if doc is not None:
        cfg_path.write_text(json.dumps(doc))
    with pytest.raises(error):
        load_config(str(cfg_path))
    code, out, err = run_cli(capsys, "check", "--config", str(cfg_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err
