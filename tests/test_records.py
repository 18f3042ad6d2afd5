"""The frozen value classes: each keeps the constructor, equality, hash,
repr and immutability that it had as a frozen dataclass."""

import pytest

from iwk.cli import AnalysisReport, CurveRecord
from iwk.conditions import Status, Verdict
from iwk.ecq import EllipticCurveQ, Potentially, ReductionInfo, ReductionKind, TraceRecord, TwistClass
from iwk.growth import GrowthClass, IwasawaInvariants
from iwk.iwasawa import DistinguishedPoly, ElementaryLambdaModule, GrowthWindowReport, TruncatedSeries
from iwk.padic import INFINITY
from iwk.twist import TwistCertificate
from iwk.zpmod import DeltaCharacter, FgZpModule, FittingIdeal, GroupRingPresentation, Presentation

F = DistinguishedPoly(3, (6, 3))
# (class, constructor arguments, the same class with one field changed,
#  the repr a frozen dataclass gave, the tuple it hashed, or None when a
#  dict field makes it unhashable)
CASES = [
    (CurveRecord, ("11a1", (0, -1, 1, -10, -20)), ("11a2", (0, -1, 1, -10, -20)),
     "CurveRecord(label='11a1', ainvs=(0, -1, 1, -10, -20))", ("11a1", (0, -1, 1, -10, -20))),
    (AnalysisReport, ({"p": 7},), ({"p": 5},), "AnalysisReport(data={'p': 7})", None),
    (Verdict, (Status.HOLDS, ((5, "x"),), {"bound": 7}), (Status.HOLDS, (), {"bound": 7}),
     "Verdict(status=<Status.HOLDS: 'HOLDS'>, witnesses=((5, 'x'),), parameters={'bound': 7})",
     None),
    (EllipticCurveQ, (0, 0, 1, -7, 6), (0, -1, 1, -10, -20),
     "EllipticCurveQ(a1=0, a2=0, a3=1, a4=-7, a6=6)", (0, 0, 1, -7, 6)),
    (ReductionInfo,
     (5077, ReductionKind.MULT_NONSPLIT, Potentially.POT_MULT, TwistClass.UNIT_NONSQUARE),
     (5077, ReductionKind.ADDITIVE, Potentially.POT_MULT, TwistClass.UNIT_NONSQUARE),
     "ReductionInfo(prime=5077, kind=<ReductionKind.MULT_NONSPLIT: 'MULT_NONSPLIT'>, "
     "potentially=<Potentially.POT_MULT: 'POT_MULT'>, "
     "twist_class_gamma=<TwistClass.UNIT_NONSQUARE: 'UNIT_NONSQUARE'>)",
     (5077, ReductionKind.MULT_NONSPLIT, Potentially.POT_MULT, TwistClass.UNIT_NONSQUARE)),
    (TraceRecord, (5, -3), (5, 3), "TraceRecord(prime=5, a_ell=-3)", (5, -3)),
    (GrowthClass, (7, 0, 4), (7, 1, 4), "GrowthClass(p=7, mu_hat=0, lambda_hat=4, label='')",
     (7, 0, 4, "")),
    (IwasawaInvariants, (7, 0, 2, "LMFDB"), (7, 0, 2, "cli"),
     "IwasawaInvariants(p=7, mu=0, lam=2, source='LMFDB')", (7, 0, 2, "LMFDB")),
    (DistinguishedPoly, (3, (6, 3)), (3, (3, 3)), "DistinguishedPoly(p=3, coefficients=(6, 3))",
     (3, (6, 3))),
    (ElementaryLambdaModule, (3, 1, ((F, 2),)), (3, 1, ((F, 1),)),
     "ElementaryLambdaModule(p=3, mu=1, factors=((DistinguishedPoly(p=3, coefficients=(6, 3)), 2),))",
     (3, 1, ((F, 2),))),
    (TruncatedSeries, (3, 2, 3, (10, -1)), (3, 2, 3, (10, 1)),
     "TruncatedSeries(p=3, p_precision=2, T_precision=3, coefficients=(1, 8, 0))",
     (3, 2, 3, (1, 8, 0))),
    (GrowthWindowReport, ((1, 2), (1, 3), (1, 1), True, 1), ((1, 2), (1, 3), (1, 1), False, 1),
     "GrowthWindowReport(levels=(1, 2), orders=(1, 3), deviations=(1, 1), bounded=True, "
     "max_deviation=1)", ((1, 2), (1, 3), (1, 1), True, 1)),
    (TwistCertificate, (3, (11,), (11,), (), 1, {11: -1}, 5, "none", 5),
     (3, (11,), (11,), (), 1, {11: -1}, 13, "none", 13),
     "TwistCertificate(p=3, S=(11,), S0=(11,), S1=(), N1_star=1, epsilon={11: -1}, q=5, "
     "mod8_case='none', d=5)", None),
    (FgZpModule, (7, 1, [3, 1]), (7, 0, [3, 1]), "FgZpModule(p=7, free_rank=1, exponents=(3, 1))",
     (7, 1, (3, 1))),
    (Presentation, (3, 2, [[10, 3], [1, 0]]), (3, 2, [[10, 3], [1, 1]]),
     "Presentation(p=3, precision=2, matrix=((1, 3), (1, 0)))", (3, 2, ((1, 3), (1, 0)))),
    (FittingIdeal, (INFINITY,), (2,), "FittingIdeal(generator_valuation=inf)", (INFINITY,)),
    (DeltaCharacter, (5, 2), (5, 3), "DeltaCharacter(p=5, index=2)", (5, 2)),
    (GroupRingPresentation, (5, 1, (((1, 7, 3, 9),),)), (5, 1, (((1, 7, 3, 8),),)),
     "GroupRingPresentation(p=5, precision=1, entries=(((1, 2, 3, 4),),))",
     (5, 1, (((1, 2, 3, 4),),))),
]


def test_every_record_class_is_covered():
    import iwk._record

    classes = {case[0] for case in CASES}
    assert len(classes) == len(CASES) == 18
    assert all(issubclass(cls, iwk._record.Record) for cls in classes)


@pytest.mark.parametrize("cls, args, changed, text, key", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_equality_hash_repr_and_immutability(cls, args, changed, text, key):
    obj = cls(*args)
    assert repr(obj) == text
    assert obj == cls(*args) and not obj != cls(*args)
    assert obj != cls(*changed)
    assert obj.__eq__(key) is NotImplemented and obj != key
    if key is None:
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)
    else:
        assert hash(obj) == hash(cls(*args)) == hash(key)
    for name in (text[len(cls.__name__) + 1:].split("=")[0], "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert repr(obj) == text


def test_record_defaults():
    # the constructor defaults the dataclasses had, and a fresh dict for
    # each default dict field
    assert Verdict(Status.HOLDS).witnesses == ()
    v1, v2 = Verdict(Status.HOLDS), Verdict(Status.HOLDS)
    assert v1.parameters == {} and v1.parameters is not v2.parameters
    cert = TwistCertificate(p=3, S=(), S0=(), S1=(), N1_star=1)
    assert (cert.epsilon, cert.q, cert.mod8_case, cert.d) == ({}, None, "none", 1)
    assert cert.epsilon is not TwistCertificate(p=3, S=(), S0=(), S1=(), N1_star=1).epsilon
    assert ReductionInfo(3, ReductionKind.GOOD, Potentially.POT_GOOD).twist_class_gamma is None
    assert GrowthClass(7, 0, 4).label == "" and IwasawaInvariants(7, 0, 2).source == ""
    assert ElementaryLambdaModule(3, 0).factors == ()
    assert (FgZpModule(5).free_rank, FgZpModule(5).exponents) == (0, ())
    assert GroupRingPresentation(5, 1).entries == ()
