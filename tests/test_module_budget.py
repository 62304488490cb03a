"""No module under ``src/repro`` outgrows what a reader can hold.

ROADMAP item 2: "no file over ~600 lines".  The one file still above
the limit is listed with its current ceiling; an entry may only be
lowered (and removed once the file fits), never raised or added.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
LIMIT = 600
RATCHET = {"cluster/router.py": 627}


def test_every_module_fits_its_budget():
    over = {}
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        lines = len(path.read_text().splitlines())
        if lines > RATCHET.get(name, LIMIT):
            over[name] = lines
    assert not over, f"modules over budget: {over}"
