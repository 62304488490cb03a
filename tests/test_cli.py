"""Command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, _scale_from, build_parser, main
from repro.harness.context import DEFAULT_SCALE, QUICK_SCALE


def test_experiments_listing(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    for key in EXPERIMENTS:
        assert key in out


def test_run_unknown_experiment(capsys):
    assert main(["run", "bogus"]) == 2


def test_run_static_tables(capsys):
    assert main(["run", "tables4-12"]) == 0
    out = capsys.readouterr().out
    assert "SSD-A" in out and "C-MLC(NVMe)" in out


def test_run_table6_quick(capsys):
    assert main(["run", "table6", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "prxy0" in out


def test_run_multiple_experiments(capsys):
    assert main(["run", "table6", "tables4-12", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "prxy0" in out and "SSD-A" in out


def test_run_json_format(capsys):
    assert main(["run", "table6", "--quick", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["id"] == "table6"
    result = data["results"][0]
    assert result["experiment"] == "Table 6"
    assert result["columns"] and result["rows"]
    assert set(data["telemetry"]) >= {"metrics", "events"}
    assert data["paths"] == {}       # table6 builds no SRC stack


def test_run_json_multiple_is_list(capsys):
    assert main(["run", "table6", "tables4-12", "--quick",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert isinstance(data, list) and len(data) == 2
    assert [d["id"] for d in data] == ["table6", "tables4-12"]
    assert len(data[1]["results"]) == 2   # table 4 and table 12


def test_scale_flags_override_preset():
    parser = build_parser()
    args = parser.parse_args(["run", "table6", "--quick",
                              "--scale", "1/128", "--seed", "9",
                              "--warmup", "3.5", "--duration", "1.5"])
    es = _scale_from(args)
    assert es.scale == pytest.approx(1 / 128)
    assert es.seed == 9
    assert es.warmup == 3.5
    assert es.duration == 1.5
    # unspecified fields come from the --quick base
    assert es.fio_iodepth == QUICK_SCALE.fio_iodepth


def test_scale_flags_default_base():
    args = build_parser().parse_args(["run", "table6"])
    assert _scale_from(args) == DEFAULT_SCALE


def test_scale_accepts_plain_float():
    args = build_parser().parse_args(["run", "table6",
                                      "--scale", "0.015625"])
    assert _scale_from(args).scale == pytest.approx(1 / 64)


def test_scale_rejects_garbage():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "table6", "--scale", "fast"])


def test_trace_unknown_experiment(capsys):
    assert main(["trace", "bogus"]) == 2


def test_trace_verb(capsys):
    # table6 builds no device stacks: cheap, and exercises the verb's
    # empty-trace path end to end.
    assert main(["trace", "table6", "--quick", "--limit", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# table6:")
    assert "0 events recorded" in out


def test_trace_csv(tmp_path, capsys):
    out = tmp_path / "events.csv"
    assert main(["trace", "table6", "--quick", "--csv", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].split(",")[:3] == ["type", "t", "device"]


def test_export_trace_roundtrip(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert main(["export-trace", "mds0", str(out),
                 "--requests", "20", "--scale", "0.004"]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 20


def test_replay_unknown_target(capsys):
    assert main(["replay", "write", "--target", "bogus"]) == 2


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_repro_error_exits_2_with_one_line_message(capsys):
    # --scale 40 is a valid float but an absurd geometry: the stack
    # raises ConfigError (a ReproError), which the CLI turns into a
    # single stderr line and exit status 2 — no traceback.
    assert main(["replay", "write", "--scale", "40"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError:")
    assert len(err.strip().splitlines()) == 1


def test_chaos_verb_explores_a_small_budget(capsys):
    assert main(["chaos", "--budget", "2", "--ops", "400",
                 "--skip-composed"]) == 0
    out = capsys.readouterr().out
    assert "src: 2 explored now" in out and "cluster: 2 explored now" in out
    assert "sensitivity: ME seal skipped" in out and "caught" in out
    assert out.rstrip().endswith("chaos: OK")


def test_chaos_verb_json_payload(capsys, tmp_path):
    frontier = tmp_path / "frontier.json"
    assert main(["chaos", "--budget", "2", "--ops", "400", "--scenario", "src",
                 "--frontier", str(frontier), "--skip-composed",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] and data["composed"] is None
    assert list(data["scenarios"]) == ["src"]
    assert data["scenarios"]["src"]["explored_total"] == 2
    assert data["scenarios"]["src"]["violations"] == []
    assert data["sensitivity"]["violations_caught"] > 0
    explored = json.loads(frontier.read_text())["scenarios"]["src"]["explored"]
    assert len(explored) == 2 and all(v["crashed"] for v in explored.values())


def test_faults_verb_is_gone(capsys):
    # ``rebuild`` and ``cluster`` are experiment ids of ``run`` now.
    for verb in ("faults", "rebuild", "cluster"):
        with pytest.raises(SystemExit) as exc:
            main([verb])
        assert exc.value.code == 2
        assert f"invalid choice: '{verb}'" in capsys.readouterr().err


def _documented_commands():
    """``(where, argv)`` of every ``python -m repro ...`` line inside a
    fenced block of README.md and docs/*.md."""
    root = Path(__file__).resolve().parent.parent
    for path in [root / "README.md", *sorted((root / "docs").glob("*.md"))]:
        fenced = False
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if line.lstrip().startswith("```"):
                fenced = not fenced
                continue
            words = line.split("#")[0].split() if fenced else []
            if words[:1] == ["PYTHONPATH=src"]:
                del words[0]
            if words[:3] == ["python", "-m", "repro"]:
                yield f"{path.name}:{lineno}", words[3:]


def test_documented_commands_parse_and_name_known_experiments():
    parser = build_parser()
    commands = list(_documented_commands())
    assert len(commands) > 10          # the walk found the blocks
    for where, argv in commands:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"{where}: 'python -m repro {' '.join(argv)}' "
                        "does not parse")
        ids = []
        if args.command == "run":
            ids = args.experiments
        elif args.command == "trace":
            ids = [args.experiment]
        unknown = [e for e in ids if e not in EXPERIMENTS]
        assert not unknown, f"{where}: unknown experiment(s) {unknown}"
