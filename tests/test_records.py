"""The frozen value classes: equality, hashing, repr, immutability,
defaults and generated constructors; and no module imports a name it
does not use."""

import ast
import copy
import importlib
import inspect
import os
import pickle
import pkgutil
import re
import subprocess
import sys
import typing
from fractions import Fraction
from pathlib import Path

import pytest

import slcterm
from slcterm import decide, hpoly
from slcterm.analyzer import CycleWitness, RegionFlags, TraceSeed, Verdict
from slcterm.collatz import GenCollatz, OrbitResult, WeakCollatz
from slcterm.lattice import Height
from slcterm.oracle import TransGraph
from slcterm.poly2 import (
    Constraint,
    HalfPlane,
    HPoly,
    Line,
    Plane,
    Pointed2,
    Ray,
    Zero,
    decompose,
)

# README's Library example
README_LOOP = [(4, -3, 2), (-4, 3, 0), (-1, 0, -3)]

# a builder per class and the repr each instance had as a frozen dataclass
RECORDS = [
    (lambda: HPoly((Constraint(1, -1, 0),)), "HPoly(rows=(Constraint(a1=1, a2=-1, b=0),))"),
    (Zero, "Zero()"),
    (lambda: Ray((1, 2)), "Ray(v=(1, 2))"),
    (lambda: Line((0, 1)), "Line(v=(0, 1))"),
    (lambda: HalfPlane((1, 0), (0, -1)), "HalfPlane(boundary=(1, 0), interior_witness=(0, -1))"),
    (lambda: Pointed2((1, 0), (0, 1)), "Pointed2(v1=(1, 0), v2=(0, 1))"),
    (Plane, "Plane()"),
    (lambda: decompose(hpoly(README_LOOP)),
     "MWDecomp(meets=((9, 12, 3), (9, 10, 3)), cone=Ray(v=(3, 4)))"),
    (lambda: Height(None), "Height(value=None)"),
    (lambda: CycleWitness((0, 1)), "CycleWitness(states=(0, 1))"),
    (lambda: TraceSeed("shift", (1, 2)), "TraceSeed(mode='shift', data=(1, 2))"),
    (lambda: decide(hpoly(README_LOOP)),
     "Verdict(kind='non-terminating', label='L5.3.1', witness=TraceSeed(mode='ascend', data=(3, 4)))"),
    (lambda: RegionFlags(True, False, True, False),
     "RegionFlags(i_plus=True, i_minus=False, delta_plus=True, delta_minus=False)"),
    (lambda: WeakCollatz(3, 4, 0), "WeakCollatz(d=3, m=4, a=0)"),
    (lambda: GenCollatz(2, (1, 3), (0, -1)), "GenCollatz(d=2, m=(1, 3), r=(0, -1))"),
    (lambda: OrbitResult("entered-cycle", (1, 2, 1), 0, 2),
     "OrbitResult(outcome='entered-cycle', prefix=(1, 2, 1), first_index=0, period=2, k=None)"),
    (lambda: TransGraph(1, {0: (0, 1)}, frozenset({1})),
     "TransGraph(bound=1, span={0: (0, 1)}, exits=frozenset({1}))"),
]
IDS = [text[: text.index("(")] for _, text in RECORDS]


@pytest.mark.parametrize("build,text", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_format(build, text):
    assert repr(build()) == text


@pytest.mark.parametrize("build,text", RECORDS, ids=IDS)
def test_equal_by_class_and_fields(build, text):
    a, b = build(), build()
    assert a == b and not a != b and a is not b
    assert a != text and a != ()
    if isinstance(a, TransGraph):  # its span is a dict
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) and len({a, b}) == 1


def test_equality_needs_the_same_class_and_fields():
    assert Ray((1, 2)) != Line((1, 2))
    assert Zero() != Plane()
    assert Ray((1, 2)) != Ray((2, 1))
    assert Height(1) != CycleWitness((1,))
    assert WeakCollatz(3, 4, 0) != WeakCollatz(3, 4, 1)
    assert TraceSeed("shift", (1, 2)) != TraceSeed("ascend", (1, 2))
    assert len({Zero(), Plane(), Ray((1, 0)), Line((1, 0)), Ray((1, 0))}) == 4


@pytest.mark.parametrize("build,text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(build, text):
    r = build()
    for name in re.findall(r"(\w+)=", text) + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(r, name, 1)
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert repr(r) == text


@pytest.mark.parametrize("build,text", RECORDS, ids=IDS)
def test_copy_and_pickle_keep_the_value(build, text):
    r = build()
    for c in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert type(c) is type(r) and c == r and repr(c) == text


def test_defaults_and_keywords():
    v = Verdict("terminating", "L5.5.2")
    assert v.witness is None and v.decomposition is None
    assert Verdict(kind="terminating", label="L5.5.2", witness=None) == v
    assert TransGraph(2, {0: (1, 1)}).exits == frozenset()
    o = OrbitResult("exceeded-steps", (1, 2))
    assert (o.first_index, o.period, o.k) == (None, None, None)
    assert OrbitResult("reached-target", (4,), k=0).k == 0
    assert WeakCollatz(d=3, m=4, a=0) == WeakCollatz(3, 4, 0)
    assert GenCollatz(d=2, m=(1, 3), r=(0, -1)).r == (0, -1)


# the trailing defaults each class declares; every other field is required
DEFAULTS = {
    "Verdict": {"witness": None, "decomposition": None},
    "OrbitResult": {"first_index": None, "period": None, "k": None},
    "TransGraph": {"exits": frozenset()},
}


@pytest.mark.parametrize("build,text", RECORDS, ids=IDS)
def test_constructor_takes_the_slots_in_order(build, text):
    r = build()
    cls = type(r)
    slots = list(cls.__slots__)
    if not slots:  # Zero and Plane keep object's constructor
        assert cls.__init__ is object.__init__ and cls() == r
        with pytest.raises(TypeError):
            cls(1)
        return
    params = inspect.signature(cls).parameters.values()
    assert [q.name for q in params] == slots
    assert all(q.kind is q.POSITIONAL_OR_KEYWORD for q in params)
    assert {q.name: q.default for q in params if q.default is not q.empty} == DEFAULTS.get(cls.__name__, {})
    values = {f: getattr(r, f) for f in slots}
    by_position, by_keyword = cls(*values.values()), cls(**values)
    assert by_position == by_keyword == r
    assert all(getattr(by_position, f) is v and getattr(by_keyword, f) is v for f, v in values.items())
    assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
    # argument errors name the class as a hand-written constructor's do
    name = f"{cls.__name__}.__init__()" if sys.version_info >= (3, 11) else "__init__()"
    with pytest.raises(TypeError, match=re.escape(f"{name} missing 1 required positional argument: '{slots[0]}'")):
        cls(**{f: v for f, v in values.items() if f != slots[0]})
    with pytest.raises(TypeError, match=re.escape(f"{name} got an unexpected keyword argument 'extra'")):
        cls(**values, extra=1)
    with pytest.raises(TypeError, match="positional argument"):
        cls(*values.values(), 1)


def test_modules_import_only_what_they_use():
    # every name bound by a top-level import is read somewhere in the
    # module, or exported through `__all__`
    for path in sorted(Path(slcterm.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound, exported = set(), set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound |= {a.asname or a.name.partition(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound |= {a.asname or a.name for a in node.names}
            elif isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
                exported = set(ast.literal_eval(node.value))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        assert bound <= used | exported, (path.name, sorted(bound - used - exported))


def test_public_names_are_used_or_documented():
    # every public top-level function and class is read by the package's
    # own code or named in README: a reference that only tests need lives
    # in tests/conftest.py
    trees = [ast.parse(path.read_text()) for path in Path(slcterm.__file__).parent.glob("*.py")]
    used = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))}
    readme = set(re.findall(r"\w+", (Path(__file__).parents[1] / "README.md").read_text()))
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}
    assert defined <= used | readme, sorted(defined - used - readme)


def test_annotations_resolve():
    # under `from __future__ import annotations` nothing evaluates an
    # annotation, so each function, method, property and class of the
    # package resolves its own here; `poly2` names `Fraction` in three
    # without importing it at the top
    modules = ["slcterm", *(f"slcterm.{m.name}" for m in pkgutil.iter_modules(slcterm.__path__))]
    checked = 0
    for module in map(importlib.import_module, modules):
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            for member in [obj, *(vars(obj).values() if isinstance(obj, type) else ())]:
                member = getattr(member, "fget", member)  # a property's getter
                member = getattr(member, "__func__", member)  # a classmethod's function
                if inspect.isfunction(member) or isinstance(member, type):
                    typing.get_type_hints(member, localns={"Fraction": Fraction})
                    checked += 1
    assert checked > 100


def test_verdict_skips_its_decomposition():
    p = hpoly(README_LOOP)
    v = decide(p)
    bare = Verdict(v.kind, v.label, v.witness)
    assert v.decomposition == decompose(p) and bare.decomposition is None
    assert v == bare and hash(v) == hash(bare) and repr(v) == repr(bare)
    assert pickle.loads(pickle.dumps(v)).decomposition == v.decomposition


@pytest.mark.parametrize("args,message", [
    ((1, 3, 0), "modulus d must be >= 2"),
    ((3, 0, 0), "multiplier m must be nonzero"),
    ((3, 6, 0), "m must be coprime to d"),
])
def test_weak_collatz_checks(args, message):
    with pytest.raises(ValueError, match=message):
        WeakCollatz(*args)


@pytest.mark.parametrize("args,message", [
    ((1, (1,), (0,)), "modulus d must be >= 2"),
    ((2, (1,), (0, 1)), "need exactly d multipliers and offsets"),
    ((2, (1, 0), (0, 0)), "branch 1: multiplier must be nonzero"),
    ((2, (1, 2), (0, 0)), "branch 1: multiplier must be coprime to d"),
    ((2, (1, 3), (0, 0)), r"branch 1: m_i\*i must equal r_i mod d"),
])
def test_gen_collatz_checks(args, message):
    with pytest.raises(ValueError, match=message):
        GenCollatz(*args)


@pytest.mark.parametrize("build,text", RECORDS, ids=IDS)
def test_records_are_exactly_their_slots(build, text):
    # no instance dict to cache a view in, and only Verdict hides a field
    r = build()
    cls = type(r)
    assert not hasattr(r, "__dict__")
    assert cls._fields == (cls.__slots__ if cls is not Verdict else ("kind", "label", "witness"))


def test_decomposition_identity_builds_no_fraction():
    # ==, hash and repr of a decomposition read its integer meets and its
    # cone: a fresh interpreter without site (-S) compares, hashes and
    # prints two of them and still has not loaded `fractions`
    script = (
        "import sys; from slcterm.poly2 import decompose, hpoly\n"
        f"a, b = (decompose(hpoly({README_LOOP!r})) for _ in range(2))\n"
        "assert a == b and hash(a) == hash(b) and repr(a) == repr(b)\n"
        "print('fractions' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(slcterm.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")
