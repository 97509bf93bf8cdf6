"""Reports against golden copies: the structured ``check`` report, the
discrepancies of a negative control and the structured ``image`` report
must stay byte-identical, apart from the ``seconds`` fields, which the
golden copies leave out.

``data/before-factored-scalars/`` keeps the copies made before scalars
were factored.  Factored scalars print a fraction with a canonical sign
and the constant in the numerator, so a few coefficients read
differently; each must still equal the old one as a field element."""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from iqgklo.cli import _result_entry, main
from iqgklo.relations import RelationChecker
from iqgklo.satake import build_catalog, catalog_by_name
from iqgklo.scalars import GR, Monomial, Poly, Scalar

DATA = Path(__file__).parent / "data"
BEFORE = DATA / "before-factored-scalars"


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
])
def test_check_report_matches_golden(capsys, golden, argv, code):
    assert main(["check", *argv, "--format", "structured"]) == code
    out = capsys.readouterr().out
    assert _text(json.loads(out)) == (DATA / golden).read_text()


def test_image_report_matches_golden(capsys):
    # every generator of a marked instance: both B-image shapes, the
    # constant block and the Cartan-current reprs
    assert main(["image", "--instance", "sA2-v11-t10",
                 "--format", "structured"]) == 0
    assert capsys.readouterr().out == \
        (DATA / "image-sA2-v11-t10.json").read_text()


@pytest.mark.parametrize("name, corrupt, kind", [
    ("qsA2-v11", "flip_wp", "BB3"),
    # the left side's prefactor is evaluated at the pins of each term
    ("sA1-v1-t1", "drop_kappa", "BB2"),
])
def test_negative_control_discrepancies_match_golden(name, corrupt, kind):
    # localized failures: supports, shift parts and coefficient reprs, in
    # report order
    inst = catalog_by_name(name)
    report = RelationChecker(inst, corrupt=corrupt).run([kind])
    entries = [_result_entry(r) for r in report.results]
    assert _text(entries) == \
        (DATA / f"negative-{name}-{corrupt}-{kind}.json").read_text()


@pytest.mark.parametrize("corrupt", ["flip_wp", "drop_kappa", "drop_const"])
def test_discrepancy_supports_list_their_variables_in_name_order(corrupt):
    supports = [list(d["support"]) for inst in build_catalog()
                for r in RelationChecker(inst, corrupt=corrupt).run().results
                for d in _result_entry(r).get("discrepancies", ())]
    # some support pins several variables, so the order is tested
    assert max(map(len, supports)) > 1
    for names in supports:
        assert names == sorted(names)


def _parse_coeff(text):
    """An int, Fraction or Gaussian coefficient as printed."""
    if text.startswith("("):
        re_, sign, im = re.fullmatch(r"\((.+?)([+-])(.+)\*I\)", text).groups()
        return GR(Fraction(re_), Fraction(sign + im))
    if text.endswith("*I"):
        return GR(0, Fraction(text[:-2]))
    return GR(Fraction(text))


def _parse_poly(text):
    out = Poly.zero()
    for term in text.split(" + "):
        m = re.fullmatch(r"(\(.+?\)|-?[0-9/]+(?:\*I)?)\*(.+)", term)
        coeff, mono = _parse_coeff(m.group(1)), m.group(2)
        exps = [] if mono == "1" else [
            (v, int(e or 1)) for v, _, e in
            (f.partition("^") for f in mono.split("*"))]
        out = out + Poly.mono(Monomial(exps), coeff)
    return out


def _parse_scalar(text):
    """The value of a printed Scalar: a Poly, or (num)/(den)."""
    if text.startswith("(") and ")/(" in text and text.endswith(")"):
        num, den = text[1:-1].split(")/(")
        return Scalar(_parse_poly(num), _parse_poly(den))
    return Scalar(_parse_poly(text))


def _coefficients(doc):
    """(path, printed Scalar) for every coefficient text in a report."""
    out = []
    for entry in doc:
        if entry.get("detail", "").startswith("leading coefficient "):
            out.append((entry["check"], entry["detail"][20:]))
        for k, d in enumerate(entry.get("discrepancies", ())):
            if d.get("lhs") not in (None, "None"):
                out.append((f"{entry['check']}/{k}/lhs", d["lhs"]))
                out.append((f"{entry['check']}/{k}/rhs", d["rhs"]))
    return out


@pytest.mark.parametrize("golden, key", [
    ("check-qsA2-v11.json", "results"),
    ("negative-qsA2-v11-flip_wp-BB3.json", None),
])
def test_regenerated_coefficients_equal_the_old_ones(golden, key):
    old = json.loads((BEFORE / golden).read_text())
    new = json.loads((DATA / golden).read_text())
    if key:
        old, new = old[key], new[key]
    strip = _without_seconds
    # supports, shift parts, statuses and order are unchanged, but for
    # the order of each support's variables, which is now name-sorted
    for entry in old:
        for d in entry.get("discrepancies", ()):
            d["support"] = dict(sorted(d["support"].items()))
    blank = re.compile(r'"(lhs|rhs|detail)": "[^"]*"')
    assert blank.sub("", json.dumps(strip(old))) == \
        blank.sub("", json.dumps(strip(new)))
    pairs = list(zip(_coefficients(old), _coefficients(new)))
    assert pairs and len(pairs) == len(_coefficients(old))
    changed = 0
    for (path, a), (path_new, b) in pairs:
        assert path == path_new
        assert _parse_scalar(a).equals(_parse_scalar(b)), path
        changed += a != b
    assert changed
