"""urnlab's frozen records: construction, repr, equality, hashing and
immutability as the standard frozen dataclass gave them, and each
``__post_init__`` check."""

from fractions import Fraction

import pytest

from urnlab import (
    AlgebraicEquation,
    ContourResult,
    ContourSpec,
    ExactDistribution,
    Integrand,
    LimitParams,
    RateFunction,
    SaddleSet,
    SimulationRun,
    TruncatedSeries,
    UrnlabError,
    UrnSpec,
)

SPEC = UrnSpec(1, 1, 0, 1)
SPEC_REPR = "UrnSpec(alpha=1, beta=1, a0=0, b0=1)"
PARAMS = LimitParams(Fraction(3, 2), Fraction(3, 4))
PARAMS_REPR = "LimitParams(mu=Fraction(3, 2), nu2=Fraction(3, 4))"

# (class, the required fields in order, the repr with every default filled in)
RECORDS = [
    (UrnSpec, {"alpha": 1, "beta": 1, "a0": 0, "b0": 1}, SPEC_REPR),
    (LimitParams, {"mu": Fraction(3, 2), "nu2": Fraction(3, 4)}, PARAMS_REPR),
    (RateFunction, {"params": PARAMS, "xi": 0.5}, f"RateFunction(params={PARAMS_REPR}, xi=0.5)"),
    (
        ExactDistribution,
        {"n": 2, "masses": {3: Fraction(1, 2)}},
        "ExactDistribution(n=2, masses={3: Fraction(1, 2)})",
    ),
    (
        SimulationRun,
        {"spec": SPEC, "n": 3, "trials": 10, "seed": 7, "counts": {4: 10}, "mean": 4.0, "variance": 0.0},
        f"SimulationRun(spec={SPEC_REPR}, n=3, trials=10, seed=7, counts={{4: 10}}, mean=4.0, "
        "variance=0.0, stream='binomial-counts/1')",
    ),
    (Integrand, {"spec": SPEC, "x": Fraction(1, 2)}, f"Integrand(spec={SPEC_REPR}, x=Fraction(1, 2))"),
    (
        SaddleSet,
        {"main": 1 + 0j, "main_multiplicity": 1, "secondary": (0.5 + 0j,), "derivative_residuals": (0.0, 0.0)},
        "SaddleSet(main=(1+0j), main_multiplicity=1, secondary=((0.5+0j),), derivative_residuals=(0.0, 0.0))",
    ),
    (
        ContourSpec,
        {"n": 5},
        "ContourSpec(n=5, kind='sector')",
    ),
    (
        ContourResult,
        {"n": 5, "kind": "circle", "value": 2 + 0j, "log_value": 0.5 + 0j, "segments": {"circle": 2 + 0j},
         "log_segments": {"circle": 0.5 + 0j}, "diagnostics": {"nodes": 64}},
        "ContourResult(n=5, kind='circle', value=(2+0j), log_value=(0.5+0j), segments={'circle': (2+0j)}, "
        "log_segments={'circle': (0.5+0j)}, diagnostics={'nodes': 64})",
    ),
    (
        TruncatedSeries,
        {"x_value": Fraction(1, 2), "order": 1, "coeffs": (1, 2)},
        "TruncatedSeries(x_value=Fraction(1, 2), order=1, coeffs=(1, 2))",
    ),
    (AlgebraicEquation, {"spec": SPEC}, f"AlgebraicEquation(spec={SPEC_REPR})"),
]

DEFAULTS = {
    SimulationRun: {"stream": "binomial-counts/1"},
    ContourSpec: {"kind": "sector"},
}

each_record = pytest.mark.parametrize("cls, required, text", RECORDS, ids=[c.__name__ for c, _, _ in RECORDS])


def _other(value):
    """A value of the same kind that compares unequal to ``value``."""
    if isinstance(value, (dict, list, tuple)):
        return type(value)()
    if isinstance(value, UrnSpec):
        return UrnSpec(2, 1, 0, 1)
    if isinstance(value, LimitParams):
        return LimitParams(Fraction(1), Fraction(1))
    if isinstance(value, str):
        return value + "x"
    return value + 1


def _with(record, name, value):
    """``record`` with one field replaced, past ``__post_init__``."""
    other = object.__new__(type(record))
    other.__dict__.update(record.__dict__, **{name: value})
    return other


@each_record
def test_construction_positional_keyword_and_defaults(cls, required, text):
    fields = {**required, **DEFAULTS.get(cls, {})}
    by_keyword = cls(**required)
    assert repr(by_keyword) == text
    assert cls(*required.values()) == by_keyword
    assert cls(*fields.values()) == by_keyword
    assert cls(**dict(reversed(fields.items()))) == by_keyword
    for name, value in fields.items():
        assert getattr(by_keyword, name) == value
    with pytest.raises(TypeError, match="positional arguments"):
        cls(*fields.values(), None)
    with pytest.raises(TypeError, match="missing .*required"):
        cls(*list(required.values())[:-1])
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(**required, bogus=1)
    first = next(iter(required))
    with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
        cls(*required.values(), **{first: required[first]})


@each_record
def test_assignment_is_refused(cls, required, text):
    record = cls(**required)
    for name in [*required, *DEFAULTS.get(cls, {}), "unknown"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text


@each_record
def test_equality_and_hash_go_by_class_and_fields(cls, required, text):
    record, twin = cls(**required), cls(**required)
    values = tuple(getattr(record, name) for name in {**required, **DEFAULTS.get(cls, {})})
    assert record == twin and not record != twin
    assert record != values  # a record is no tuple
    assert record != type("Subclass", (cls,), {})(**required)
    for name, value in required.items():
        assert record != _with(record, name, _other(value))
        assert record == _with(record, name, value)
    try:
        hash(values)
    except TypeError:  # a dict or list field: unhashable, like the tuple of fields
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == hash(values)


@pytest.mark.parametrize(
    "cls, kwargs, error, match",
    [
        (LimitParams, {"mu": Fraction(0), "nu2": Fraction(1)}, ValueError, "must be positive"),
        (LimitParams, {"mu": Fraction(1), "nu2": Fraction(-1)}, ValueError, "must be positive"),
        (RateFunction, {"params": PARAMS, "xi": 1.0}, ValueError, "xi must lie in"),
        (Integrand, {"spec": SPEC, "x": 0}, ValueError, "x must be nonzero"),
        (Integrand, {"spec": SPEC, "x": Fraction(10**400)}, UrnlabError, "outside the float64 range"),
        (ContourSpec, {"n": 0}, ValueError, "n must be >= 1"),
        (ContourSpec, {"n": 5, "kind": "square"}, ValueError, "unknown contour kind 'square'"),
        (TruncatedSeries, {"x_value": 1, "order": 2, "coeffs": (1, 2)}, ValueError, "order \\+ 1"),
    ],
)
def test_post_init_refuses_bad_input(cls, kwargs, error, match):
    with pytest.raises(error, match=match):
        cls(**kwargs)
