"""Reports against golden copies: the structured ``check`` report and the
discrepancies of a negative control must stay byte-identical, apart from
the ``seconds`` fields, which the golden copies leave out."""

import json
from pathlib import Path

import pytest

from iqgklo.cli import _result_entry, main
from iqgklo.relations import RelationChecker
from iqgklo.satake import catalog_by_name

DATA = Path(__file__).parent / "data"


def _without_seconds(doc):
    if isinstance(doc, dict):
        return {k: _without_seconds(v) for k, v in doc.items()
                if k != "seconds"}
    if isinstance(doc, list):
        return [_without_seconds(v) for v in doc]
    return doc


def _text(doc):
    return json.dumps(_without_seconds(doc), indent=2) + "\n"


@pytest.mark.parametrize("golden, argv, code", [
    ("check-qsA2-v11.json", ["--instance", "qsA2-v11"], 0),
    ("check-qsA3-t0-BB1-i.json",
     ["--instance", "qsA3-t0", "--relations", "BB1",
      "--bb1-convention", "i"], 1),
])
def test_check_report_matches_golden(capsys, golden, argv, code):
    assert main(["check", *argv, "--format", "structured"]) == code
    out = capsys.readouterr().out
    assert _text(json.loads(out)) == (DATA / golden).read_text()


def test_negative_control_discrepancies_match_golden():
    # localized failures: supports, shift parts and coefficient reprs, in
    # report order
    inst = catalog_by_name("qsA2-v11")
    report = RelationChecker(inst, corrupt="flip_wp").run(["BB3"])
    entries = [_result_entry(r) for r in report.results]
    assert _text(entries) == \
        (DATA / "negative-qsA2-v11-flip_wp-BB3.json").read_text()
