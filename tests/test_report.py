"""The JSON form of every result dataclass, pinned field by field.

The expected dicts are literals, so any change to expanderlab.report that
alters a field name, a value's JSON type or the derived verdicts shows here;
the CLI's payloads are built from these dicts.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from expanderlab.gadget import GadgetCertificate, GadgetParams
from expanderlab.nbwalk import (
    Lemma6Entry,
    Lemma6Report,
    Lemma8ExhaustiveReport,
    Lemma8Report,
    Lemma9Entry,
    Lemma9Report,
    PolyIdentityReport,
)
from expanderlab.params import ParamReport, Theorem1Sheet, Theorem2Constants
from expanderlab.product import InheritanceReport
from expanderlab.spectral import IncidenceIdentityReport, SpectrumReport

EARLY = Lemma6Entry(ell=1, asserted=False, violations=2, worst_ratio=1.25, worst_lambda=0.5)
LATE = Lemma6Entry(ell=14, asserted=True, violations=1, worst_ratio=1.5, worst_lambda=2.25)
EARLY_DICT = {"ell": 1, "asserted": False, "violations": 2, "worst_ratio": 1.25,
              "worst_lambda": 0.5}
LATE_DICT = {"ell": 14, "asserted": True, "violations": 1, "worst_ratio": 1.5,
             "worst_lambda": 2.25}

CASES = [
    (GadgetParams(L=8, R=4, c=2, d=4, seed=5),
     {"L": 8, "R": 4, "c": 2, "d": 4, "seed": 5}),
    (GadgetCertificate(target_k=2, verified_k=1, witness=(0, 1), subsets_checked=3,
                       budget_exhausted=False),
     {"target_k": 2, "verified_k": 1, "witness": [0, 1], "subsets_checked": 3,
      "budget_exhausted": False}),
    (PolyIdentityReport(n=2, ok=False, max_residual=Fraction(3, 2), worst_entry=(0, 1)),
     {"n": 2, "ok": False, "max_residual": "3/2", "worst_entry": [0, 1]}),
    (LATE, LATE_DICT),
    (Lemma6Report(c=2, d=3, samples=500, seed=7, precision=30, ell_min=2,
                  entries=(EARLY, LATE), escalations=4),
     {"c": 2, "d": 3, "samples": 500, "seed": 7, "precision": 30, "ell_min": 2,
      "asserted_violations": 1, "escalations": 4, "entries": [EARLY_DICT, LATE_DICT]}),
    (Lemma8Report(ell=1, set_size=1, lhs=3, rhs=4.0, ok=True),
     {"ell": 1, "set_size": 1, "lhs": 3, "rhs": 4.0, "ratio": 0.75, "ok": True}),
    (Lemma8ExhaustiveReport(ell_max=4, checked=10, violations=0, max_ratio=0.5),
     {"ell_max": 4, "checked": 10, "violations": 0, "max_ratio": 0.5}),
    (Lemma9Entry(ell=2, count=8, lower_bound=4.0, ok=True),
     {"ell": 2, "count": 8, "lower_bound": 4.0, "ok": True}),
    (Lemma9Report(avg_left_degree=2.0, avg_right_degree=3.0,
                  entries=(Lemma9Entry(ell=1, count=6, lower_bound=6.0, ok=True),
                           Lemma9Entry(ell=2, count=5, lower_bound=8.5, ok=False))),
     {"avg_left_degree": 2.0, "avg_right_degree": 3.0, "ok": False,
      "entries": [{"ell": 1, "count": 6, "lower_bound": 6.0, "ok": True},
                  {"ell": 2, "count": 5, "lower_bound": 8.5, "ok": False}]}),
    (ParamReport(c0=35, alpha=Fraction(101, 100), q_hat=1135, scan_margin=10000, precision=30,
                 q_hat_by_convention={"prime-powers-only/last-fail": 1129,
                                      "all-integers/last-fail": 1134,
                                      "all-integers/first-hold": 1135,
                                      "prime-powers-only/first-hold": 1151},
                 failures_found=1133, evaluations=21133, escalations=0),
     {"c0": 35, "alpha": "101/100", "q_hat": 1135, "scan_margin": 10000, "precision": 30,
      "q_hat_by_convention": {"all-integers/first-hold": 1135,
                              "all-integers/last-fail": 1134,
                              "prime-powers-only/first-hold": 1151,
                              "prime-powers-only/last-fail": 1129},
      "failures_found": 1133, "evaluations": 21133, "escalations": 0}),
    (Theorem2Constants(c=2, d=3, eps=0.5, ell=8, delta=0.0625, bound=3.125, star_root=1.5),
     {"c": 2, "d": 3, "eps": 0.5, "ell": 8, "delta": 0.0625, "bound": 3.125,
      "star_root": 1.5}),
    (Theorem1Sheet(c0=6, alpha=Fraction(3, 2), q=4, c=5, d=65, r0=13, gadget_left=65,
                   required_k=5, product_left_degree=30, product_right_degree=45,
                   epsilon_max=Fraction(1, 4), lemma7_k=0),
     {"c0": 6, "alpha": "3/2", "q": 4, "c": 5, "d": 65, "r0": 13, "gadget_left": 65,
      "required_k": 5, "product_left_degree": 30, "product_right_degree": 45,
      "epsilon_max": "1/4", "lemma7_k": 0}),
    (InheritanceReport(v=3, ports=(0, 2), gadget_unique=(1,), counterexample=(3, 1),
                       vacuous=False),
     {"v": 3, "ports": [0, 2], "gadget_unique": [1], "counterexample": [3, 1],
      "vacuous": False, "ok": False}),
    (SpectrumReport(c=2, d=3, singular_values=(2.5, 1.0, 0.0),
                    classifications=("trivial", "nontrivial-in-band", "zero"),
                    trivial_multiplicity=1, ramanujan=True, tolerance=1e-06,
                    band=(0.25, 2.5)),
     {"c": 2, "d": 3, "singular_values": [2.5, 1.0, 0.0],
      "classifications": ["trivial", "nontrivial-in-band", "zero"],
      "trivial_multiplicity": 1, "ramanujan": True, "tolerance": 1e-06,
      "band": [0.25, 2.5]}),
    (IncidenceIdentityReport(d=3, mismatched_entries=0),
     {"d": 3, "mismatched_entries": 0, "ok": True}),
]


@pytest.mark.parametrize("report,expected", CASES,
                         ids=[type(report).__name__ for report, _ in CASES])
def test_to_dict_is_pinned_and_strict_json(report, expected):
    d = report.to_dict()
    assert d == expected
    json.dumps(d, allow_nan=False)


def test_optional_fields_serialize_as_null():
    cert = GadgetCertificate(target_k=3, verified_k=3, witness=None, subsets_checked=9,
                             budget_exhausted=False)
    assert cert.to_dict()["witness"] is None
    report = PolyIdentityReport(n=1, ok=True, max_residual=Fraction(0), worst_entry=None)
    assert report.to_dict() == {"n": 1, "ok": True, "max_residual": "0", "worst_entry": None}


def test_unknown_values_are_not_stringified():
    # a numpy scalar that slips into a report must fail when dumped, not
    # turn silently into a string
    d = Lemma8Report(ell=1, set_size=1, lhs=np.int64(3), rhs=4.0, ok=True).to_dict()
    with pytest.raises(TypeError):
        json.dumps(d)
