"""The per-request modules compare against ``repro.common.types``'
member globals, not ``Op.<MEMBER>`` / ``IoOrigin.<MEMBER>``, and build
the per-request objects with positional arguments.

On CPython 3.11, the interpreter the benchmark runs on, a load such as
``Op.READ`` goes through the enum metaclass and is not specialised:
~125 ns, against ~17 ns for a module global (3.9: 132 / 23 ns; 3.12:
54 / 29 ns).  Keyword arguments to a Python ``__init__`` cost the same
way: ``Submission(req=..., device=..., ...)`` 719 ns against 355 ns
positional, ``Request(..., origin=..., tenant=...)`` 474 ns against
339 ns.  A profile shows these costs only spread over every caller;
these checks hold the per-request modules to the cheap spelling on any
interpreter.  Signature defaults and class bodies run once, at import,
and may keep the qualified spelling.
"""

import ast
import pickle
from pathlib import Path

import pytest

from repro.common import types
from repro.common.types import IoOrigin, Op

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
PER_REQUEST = (["block/device.py", "block/lifecycle.py", "ssd/device.py",
                "raid/array.py", "baselines/common.py", "faults/policy.py",
                "sim/engine.py", "common/types.py"]
               + sorted(p.relative_to(SRC).as_posix()
                        for d in ("hdd", "core") for p in (SRC / d).glob("*.py")))
MEMBERS = {"Op": {m.name for m in Op}, "IoOrigin": {m.name for m in IoOrigin}}
# The objects built once per request (or per FTL write), and the modules
# beyond PER_REQUEST that build them on the per-request paths.
CONSTRUCTORS = {"Request", "Submission", "FtlOpResult"}
CONSTRUCTING = PER_REQUEST + ["ssd/ftl.py", "common/chunks.py"]


def body_nodes(source: str):
    """Every node inside a function or lambda body (not its defaults)."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
        elif isinstance(node, ast.Lambda):
            body = [node.body]
        else:
            continue
        for stmt in body:
            yield from ast.walk(stmt)


def member_loads(source: str):
    """``(line, "Enum.MEMBER")`` of each member load in a function body."""
    return sorted({(sub.lineno, f"{sub.value.id}.{sub.attr}")
                   for sub in body_nodes(source)
                   if isinstance(sub, ast.Attribute)
                   and isinstance(sub.value, ast.Name)
                   and sub.attr in MEMBERS.get(sub.value.id, ())})


def keyword_constructions(source: str):
    """``(line, "Class")`` of each call in a function body to one of
    ``CONSTRUCTORS`` that passes a keyword argument."""
    return sorted({(sub.lineno, sub.func.id) for sub in body_nodes(source)
                   if isinstance(sub, ast.Call)
                   and isinstance(sub.func, ast.Name)
                   and sub.func.id in CONSTRUCTORS and sub.keywords})


@pytest.mark.parametrize("module", PER_REQUEST)
def test_per_request_module_loads_no_enum_member(module):
    loads = member_loads((SRC / module).read_text())
    assert not loads, (f"{module} loads enum members in function bodies "
                       f"(import the globals from repro.common.types): "
                       f"{loads}")


def test_the_check_sees_bodies_and_lambdas_but_not_defaults():
    source = ("def f(op=Op.READ):\n"
              "    g = lambda: IoOrigin.GC\n"
              "    return op is Op.WRITE\n"
              "class C:\n"
              "    default = Op.FLUSH\n")
    assert member_loads(source) == [(2, "IoOrigin.GC"), (3, "Op.WRITE")]


@pytest.mark.parametrize("module", CONSTRUCTING)
def test_per_request_objects_are_built_positionally(module):
    calls = keyword_constructions((SRC / module).read_text())
    assert not calls, (f"{module} passes keyword arguments to a per-request "
                       f"constructor (pass them positionally): {calls}")


def test_the_constructor_check_sees_bodies_and_lambdas_but_not_defaults():
    source = ("def f(r=Request(READ, fua=True)):\n"
              "    g = lambda: Submission(r, device='d')\n"
              "    FtlOpResult(1)\n"
              "    return Request(WRITE, 0, 4096, origin=GC)\n"
              "class C:\n"
              "    default = FtlOpResult(host_pages=1)\n")
    assert keyword_constructions(source) == [(2, "Submission"),
                                             (4, "Request")]


def test_the_globals_are_the_members():
    assert [types.READ, types.WRITE, types.FLUSH, types.TRIM] == list(Op)
    assert ([types.FOREGROUND, types.GC, types.DESTAGE, types.REBUILD,
             types.SCRUB] == list(IoOrigin))
    for member in (*Op, *IoOrigin):
        assert pickle.loads(pickle.dumps(member)) is member
        assert member._value_ == member.value
    assert repr(types.READ) == "<Op.READ: 'read'>"
