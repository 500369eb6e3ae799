"""Record classes (``_record.dataclass``) behave like the standard library's
dataclasses: each of the package's records is compared with a twin built by
``dataclasses.make_dataclass`` from the same fields, defaults and frozen
flag."""

import dataclasses
import inspect
import json
import subprocess
import sys

import pytest

from spectralbvp import beams, cli, geomnd, heat1d, intervals, specfun, sturm, varsolve, waves1d, weyl
from spectralbvp._record import Field, FrozenInstanceError, dataclass, field

RECORDS = [
    beams.BeamSpectrum,
    cli.Param,
    cli.ProblemKind,
    cli.ResultTable,
    geomnd.RectMembrane,
    geomnd.DiskMembrane,
    geomnd.BallSpec,
    geomnd.SeriesExpansion,
    heat1d.HeatMedium,
    heat1d.HeatKernel,
    intervals.UniformMode,
    specfun.SeriesEval,
    specfun.ZeroTable,
    sturm.BoundaryCondition,
    sturm.ThetaSolution,
    sturm.EigenBasis,
    varsolve.TranscendentalRoots,
    varsolve.CycloidFit,
    varsolve.GeodesicCurve,
    waves1d.WaveMedium,
    waves1d.ModeLaw,
    weyl.Domain,
]
MUTABLE = {cli.Param, cli.ProblemKind, cli.ResultTable, geomnd.SeriesExpansion, sturm.EigenBasis}
PROVIDED = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__", "__record_fields__",
            "__match_args__", "__dict__", "__weakref__", "__annotations__"}


def twin(cls):
    """The same class made by the standard library's dataclasses."""
    specs = []
    for f in cls.__record_fields__:
        kw = {"repr": f.repr}
        if f.default is not Field().default:
            kw["default"] = f.default
        if f.default_factory is not Field().default_factory:
            kw["default_factory"] = f.default_factory
        specs.append((f.name, object, dataclasses.field(**kw)))
    names = {f.name for f in cls.__record_fields__}
    namespace = {k: v for k, v in vars(cls).items() if k not in PROVIDED and k not in names}
    return dataclasses.make_dataclass(cls.__name__, specs, namespace=namespace, frozen=cls not in MUTABLE)


def required(cls, offset=0.0):
    """Valid values for the fields without a default: distinct positive
    floats, which every record's __post_init__ accepts."""
    return [2.5 + offset + i for i, f in enumerate(cls.__record_fields__)
            if f.default is Field().default and f.default_factory is Field().default_factory]


@pytest.fixture(params=RECORDS, ids=lambda cls: cls.__name__)
def pair(request):
    return request.param, twin(request.param)


def test_every_record_is_listed():
    found = {obj for mod in (beams, cli, geomnd, heat1d, intervals, specfun, sturm, varsolve, waves1d, weyl)
             for obj in vars(mod).values()
             if isinstance(obj, type) and "__record_fields__" in vars(obj) and obj.__module__ == mod.__name__}
    assert found == set(RECORDS)
    assert len(RECORDS) == 22


def test_repr_eq_and_hash_match_dataclasses(pair):
    cls, std = pair
    args = required(cls)
    a, b, other = cls(*args), cls(*args), cls(*required(cls, offset=1.0))
    s, t = std(*args), std(*args)
    assert repr(a) == repr(s)
    assert repr(other) == repr(std(*required(cls, offset=1.0)))
    assert (a == b, a != b, a == other) == (s == t, s != t, s == std(*required(cls, offset=1.0)))
    if args:
        assert a != other
    # another class, even one with the same fields, is not equal
    assert a.__eq__(s) is NotImplemented and s.__eq__(a) is NotImplemented
    assert a != s and not (a == s)
    assert a.__eq__(None) is NotImplemented
    if cls in MUTABLE:
        assert cls.__hash__ is None and std.__hash__ is None
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(s) == hash(b)


def test_signature_matches_dataclasses(pair):
    cls, std = pair
    ours, theirs = inspect.signature(cls).parameters, inspect.signature(std).parameters
    assert [(p.name, repr(p.default), p.kind) for p in ours.values()] == [
        (p.name, repr(p.default), p.kind) for p in theirs.values()]


def test_keywords_and_positions_agree(pair):
    cls, std = pair
    args = required(cls)
    names = [f.name for f in cls.__record_fields__][: len(args)]
    by_name = cls(**dict(zip(names, args)))
    assert by_name == cls(*args)
    assert repr(by_name) == repr(std(**dict(zip(names, args))))


def test_frozen_fields_refuse_assignment_and_deletion(pair):
    cls, std = pair
    a, s = cls(*required(cls)), std(*required(cls))
    name = cls.__record_fields__[0].name
    if cls in MUTABLE:
        setattr(a, name, 7.0)
        setattr(s, name, 7.0)
        assert repr(a) == repr(s)
        return
    for act in (lambda obj: setattr(obj, name, 7.0), lambda obj: delattr(obj, name),
                lambda obj: setattr(obj, "not_a_field", 7.0)):
        with pytest.raises(FrozenInstanceError) as ours:
            act(a)
        with pytest.raises(dataclasses.FrozenInstanceError) as theirs:
            act(s)
        assert str(ours.value) == str(theirs.value)
    assert issubclass(FrozenInstanceError, AttributeError)
    assert repr(a) == repr(s)


def test_bad_arguments_raise_the_same_type_error(pair):
    cls, std = pair
    args = required(cls)
    n = len(cls.__record_fields__)
    cases = [((*args, *[0.0] * (n - len(args) + 1)), {}), ((*args,), {"no_such_field": 1.0})]
    if args:
        first = cls.__record_fields__[0].name
        cases += [((*args[:-1],), {}), ((*args,), {first: 1.0})]
    for a, kw in cases:
        with pytest.raises(TypeError) as ours:
            cls(*a, **kw)
        with pytest.raises(TypeError) as theirs:
            std(*a, **kw)
        assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize(
    "make, kwargs",
    [
        (sturm.BoundaryCondition, {"h": -1.0}),
        (sturm.BoundaryCondition, {"h": float("nan")}),
        (heat1d.HeatMedium, {"a2": 0.0}),
        (geomnd.DiskMembrane, {"radius": -1.0}),
        (waves1d.WaveMedium, {"a": 0.0}),
    ],
    ids=["robin-negative", "robin-nan", "heat-a2", "disk-radius", "wave-speed"],
)
def test_post_init_rejections_match(make, kwargs):
    with pytest.raises(ValueError) as ours:
        make(**kwargs)
    with pytest.raises(ValueError) as theirs:
        twin(make)(**kwargs)
    assert str(ours.value) == str(theirs.value)


def test_default_factory_lists_are_per_instance():
    a, b = sturm.EigenBasis(None, [1.0], [1.0]), sturm.EigenBasis(None, [1.0], [1.0])
    assert a.node_counts == [] and a.node_counts is not b.node_counts
    assert a._solutions is not b._solutions
    a.node_counts.append(0)
    assert b.node_counts == []
    assert "_solutions" not in repr(a) and "node_counts=[0]" in repr(a)
    assert not hasattr(sturm.EigenBasis, "node_counts")


@pytest.mark.parametrize(
    "decorate",
    [
        lambda body: dataclass(order=True)(body),
        lambda body: dataclass(eq=False)(body),
        lambda body: dataclass(frozen=True, slots=True)(body),
        lambda body: dataclass(type("R", (), {"__annotations__": {"x": "list"}, "x": field(default=[])})),
        lambda body: dataclass(type("R", (), {"__annotations__": {"x": "int"}, "x": field(compare=False)})),
        lambda body: dataclass(type("R", (), {"__annotations__": {"x": "ClassVar[int]"}})),
        lambda body: dataclass(type("R", (), {"__annotations__": {"x": "int", "y": "int"}, "x": 1})),
        lambda body: dataclass(type("R", (), {"__annotations__": {"x": "int"}, "__repr__": lambda self: "R"})),
        lambda body: dataclass(type("S", (dataclass(body),), {"__annotations__": {"y": "int"}})),
    ],
    ids=["order", "eq", "slots", "field-default", "field-compare", "classvar", "default-order", "own-repr",
         "inherits"],
)
def test_unsupported_options_fail_loudly(decorate):
    body = type("R", (), {"__annotations__": {"x": "int"}})
    with pytest.raises(TypeError):
        decorate(body)


def test_mutable_default_is_refused_like_dataclasses():
    for make in (dataclass, dataclasses.dataclass):
        with pytest.raises(ValueError, match="mutable default"):
            make(type("R", (), {"__annotations__": {"x": "list"}, "x": []}))


def test_match_args_match_dataclasses(pair):
    cls, std = pair
    assert cls.__match_args__ == std.__match_args__ == tuple(f.name for f in cls.__record_fields__)


def test_positional_match_patterns():
    match sturm.BoundaryCondition(False, 2.0):
        case sturm.BoundaryCondition(False, h):
            got = h
    assert got == 2.0


def test_methods_belong_to_the_defining_module():
    @dataclass(frozen=True)
    class Point:
        x: float
        y: float = 0.0

    assert Point(1.0) == Point(1.0, 0.0) and Point(1.0) != Point(2.0)
    assert hash(Point(1.0)) == hash((1.0, 0.0))
    for name in ("__init__", "__eq__", "__hash__", "__repr__"):
        assert getattr(Point, name).__qualname__.endswith("Point." + name)
    assert Point.__init__.__module__ == Point.__eq__.__module__ == __name__


def test_importing_records_loads_no_module():
    code = ("import sys; before = set(sys.modules); import spectralbvp._record; "
            "import json; print(json.dumps(sorted(set(sys.modules) - before - {'json', 'json.decoder', "
            "'json.scanner', '_json', 'json.encoder'})))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["spectralbvp", "spectralbvp._record"]
