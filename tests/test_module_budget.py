"""No module under ``src/repro`` outgrows what a reader can hold.

ROADMAP item 2: "no file over ~600 lines" — every module, with no
table of exceptions.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
LIMIT = 600


def test_every_module_fits_its_budget():
    over = {}
    for path in sorted(SRC.rglob("*.py")):
        lines = len(path.read_text().splitlines())
        if lines > LIMIT:
            over[path.relative_to(SRC).as_posix()] = lines
    assert not over, f"modules over budget: {over}"
