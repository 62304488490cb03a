"""The per-request modules compare against ``repro.common.types``'
member globals, not ``Op.<MEMBER>`` / ``IoOrigin.<MEMBER>``.

On CPython 3.11, the interpreter the benchmark runs on, a load such as
``Op.READ`` goes through the enum metaclass and is not specialised:
~125 ns, against ~17 ns for a module global (3.9: 132 / 23 ns; 3.12:
54 / 29 ns).  A profile shows the cost only spread over every caller;
this check holds the per-request modules to the globals on any
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


def member_loads(source: str):
    """``(line, "Enum.MEMBER")`` of each member load in a function body."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
        elif isinstance(node, ast.Lambda):
            body = [node.body]
        else:
            continue
        for stmt in body:
            for sub in ast.walk(stmt):
                if (isinstance(sub, ast.Attribute)
                        and isinstance(sub.value, ast.Name)
                        and sub.attr in MEMBERS.get(sub.value.id, ())):
                    found.append((sub.lineno, f"{sub.value.id}.{sub.attr}"))
    return sorted(set(found))


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


def test_the_globals_are_the_members():
    assert [types.READ, types.WRITE, types.FLUSH, types.TRIM] == list(Op)
    assert ([types.FOREGROUND, types.GC, types.DESTAGE, types.REBUILD,
             types.SCRUB] == list(IoOrigin))
    for member in (*Op, *IoOrigin):
        assert pickle.loads(pickle.dumps(member)) is member
        assert member._value_ == member.value
    assert repr(types.READ) == "<Op.READ: 'read'>"
