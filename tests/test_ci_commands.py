"""Nobody here can run GitHub Actions, so tier-1 parses what CI would run:
every ``python -m repro.cli …`` command line in ``ci.yml`` (matrix rows
expanded) through the real argument parser, and every ``--gate`` spec
through ``ci_gates.parse_spec``, the gate registry and — for ``pins`` —
the floor parser.  Renaming a flag, an experiment or a gate without
updating CI fails here first.
"""

from __future__ import annotations

import pathlib
import re
import shlex

import pytest

from repro import runtime
from repro.cli import build_parser

yaml = pytest.importorskip("yaml")

CI_YML = pathlib.Path(__file__).resolve().parent.parent / ".github" / "workflows" / "ci.yml"


def _command_lines() -> list[tuple[str, list[str]]]:
    """Every shell line CI runs, as (job/step label, tokens), with each
    matrix row's values substituted and other ``${{ … }}`` blanked."""
    workflow = yaml.safe_load(CI_YML.read_text())
    lines = []
    for job_name, job in workflow["jobs"].items():
        matrix = job.get("strategy", {}).get("matrix", {})
        rows = matrix.get("include") or [{}]
        for step in job["steps"]:
            uses_matrix = "matrix." in step.get("run", "")
            for row in rows if uses_matrix else rows[:1]:
                text = re.sub(
                    r"\$\{\{\s*matrix\.([\w-]+)\s*\}\}",
                    lambda match: str(row.get(match.group(1), "")),
                    step.get("run", ""),
                )
                text = re.sub(r"\$\{\{.*?\}\}", "PLACEHOLDER", text)
                label = f"{job_name}/{row.get('name', step.get('name', '?'))}"
                lines.extend((label, shlex.split(line)) for line in text.splitlines())
    return lines


def _after(tokens: list[str], marker: str) -> "list[str] | None":
    return tokens[tokens.index(marker) + 1 :] if marker in tokens else None


COMMAND_LINES = _command_lines()

CLI_COMMANDS = [
    pytest.param(argv, id=f"{label}: {' '.join(argv[:2])}")
    for label, tokens in COMMAND_LINES
    if (argv := _after(tokens, "repro.cli")) is not None
]

GATE_SPECS = [
    pytest.param(spec, id=f"{label}: {spec}")
    for label, tokens in COMMAND_LINES
    if (argv := _after(tokens, "scripts/ci_gates.py")) is not None
    for flag, spec in zip(argv, argv[1:])
    if flag == "--gate"
]


def test_ci_runs_every_record_bearing_experiment_and_gate(ci_gates):
    """The extraction above found what it should: all six smoke rows plus
    the multicore leg's three, and exactly the two registered gates."""
    commands = [param.values[0] for param in CLI_COMMANDS]
    ran = {argv[1] if argv[0] == "experiment" else argv[0] for argv in commands}
    assert ran == {
        "accel-replay", "chaos", "dse", "fig18-window", "serving-bench", "shard-scaling"
    }
    assert len(commands) == 9
    specs = [ci_gates.parse_spec(param.values[0]) for param in GATE_SPECS]
    assert {name for name, _record, _options in specs} == set(ci_gates.GATES) == {
        "pins", "bench-diff"
    }
    # Six smoke rows, the multicore leg's three, the committed records twice.
    assert sum(name == "pins" for name, _record, _options in specs) == 11
    floors = sorted(option for name, _record, options in specs if name == "pins" for option in options)
    assert floors == [
        "*.availability>=0.85",
        "*.availability>=0.95",
        "forced-thread.best_speedup>1.0",
        "scaling.*@w4.speedup>1.0",
        "sweep.*.knee_w2_over_w1>1.0",
    ]


@pytest.mark.parametrize("argv", CLI_COMMANDS)
def test_ci_cli_command_parses(argv):
    args = build_parser().parse_args(argv)  # argparse exits (SystemExit 2) on a stale flag
    assert args.json, "every experiment CI runs records its result"


@pytest.mark.parametrize("spec", GATE_SPECS)
def test_ci_gate_spec_resolves(spec, ci_gates):
    name, _record, options = ci_gates.parse_spec(spec)
    assert name in ci_gates.GATES
    if name == "pins":
        for option in options:
            ci_gates.parse_floor(option)  # GateInputError: not PATTERN>=VALUE / PATTERN>VALUE


def test_ci_sets_only_live_repro_variables():
    """Every ``REPRO_*`` name ``ci.yml`` mentions is one the runtime still
    reads, so a retired variable fails here instead of lingering in CI."""
    named = set(re.findall(r"\bREPRO_[A-Z0-9_]+", CI_YML.read_text()))
    assert named and named <= set(runtime.ENV_VARIABLES)
