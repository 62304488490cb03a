"""No module under ``src/repro`` outgrows what a reader can hold, and the
package as a whole does not grow back.

ROADMAP item 6: "every module is ≤ 600 lines" — every module, with no
table of exceptions — "and ``core/members.py`` is ≤ 320", which keeps
member I/O and the read-around one module a reader can hold.
``PACKAGE_LIMIT`` is a ratchet: lower it when a change deletes lines;
raising it is a one-number edit that shows in the diff.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
LIMIT = 600
PACKAGE_LIMIT = 17746
MEMBERS_LIMIT = 320


def line_counts() -> dict:
    return {path.relative_to(SRC).as_posix():
            len(path.read_text().splitlines())
            for path in sorted(SRC.rglob("*.py"))}


def test_every_module_fits_its_budget():
    over = {name: n for name, n in line_counts().items() if n > LIMIT}
    assert not over, f"modules over budget: {over}"


def test_members_fits_its_budget():
    n = line_counts()["core/members.py"]
    assert n <= MEMBERS_LIMIT, (
        f"core/members.py is {n} lines, over its budget {MEMBERS_LIMIT}")


def test_the_package_does_not_grow_back():
    total = sum(line_counts().values())
    assert total <= PACKAGE_LIMIT, (
        f"src/repro is {total} lines, over its ratchet {PACKAGE_LIMIT}")
