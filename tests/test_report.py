"""Report generator wiring (no full experiment runs here)."""

from pathlib import Path

from repro.harness import report
from repro.harness.experiments import REGISTRY
from repro.harness.results import ExperimentResult


def test_every_runner_is_callable():
    for exp_id, entry in REGISTRY.items():
        assert callable(entry.run), exp_id


def test_paper_reference_covers_all_experiments():
    """Every registry entry the report runs quotes the paper."""
    suites = {"tenants", "cluster", "rebuild"}
    quoted = {exp_id for exp_id, entry in REGISTRY.items() if entry.paper}
    assert quoted == set(REGISTRY) - suites, \
        f"missing paper references: {set(REGISTRY) - suites - quoted}"


def test_section_renders_reference_and_table():
    result = ExperimentResult("Table 2", "demo", ["a"], rows=[["x"]])
    section = report._section(result, REGISTRY["table2"].paper)
    assert "## Table 2" in section
    assert "**Paper:**" in section
    assert "```" in section


def test_header_mentions_fidelity_gaps():
    header = report.HEADER.format(scale="1/32", mode="")
    assert "fidelity" in header.lower()
    assert "shape" in header.lower()


def gap_bullets(text: str) -> list:
    """The bullets under "Known fidelity gaps", whitespace normalised."""
    lines = text[text.index("Known fidelity gaps"):].splitlines()[1:]
    bullets = []
    for line in lines:
        if line.startswith("* "):
            bullets.append(line[2:])
        elif line.startswith("  ") and bullets:
            bullets[-1] += " " + line
        elif bullets:
            break
    return [" ".join(bullet.split()) for bullet in bullets]


def test_header_gaps_are_the_committed_gaps():
    """``repro report`` and the committed EXPERIMENTS.md name the same
    fidelity gaps, word for word."""
    committed = (Path(__file__).resolve().parent.parent
                 / "EXPERIMENTS.md").read_text(encoding="utf-8")
    header = report.HEADER.format(scale="1/32", mode="")
    assert len(gap_bullets(header)) == 5
    assert gap_bullets(header) == gap_bullets(committed)
