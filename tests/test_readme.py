"""The README's examples run as written, so the docs keep up with the config schema."""

import json
import re
import shlex
from pathlib import Path

from trapnets.cli import main
from trapnets.experiments import _CONFIG_KEYS

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _blocks(title: str, lang: str) -> list:
    return re.findall(rf"```{lang}\n(.*?)```", _section(title), re.S)


def test_quick_tour_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (block,) = _blocks("Quick tour", "python")
    exec(compile(block, "README quick tour", "exec"), {})


def test_command_line_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (commands,) = _blocks("Command line", "sh")
    (config,) = _blocks("Command line", "json")
    (tmp_path / "config.json").write_text(config)
    (tmp_path / "a.json").write_text(json.dumps([{"point": 0, "weight": 1.0}]))
    (tmp_path / "b.json").write_text(json.dumps([{"point": 3, "weight": 2.0}]))
    ran = []
    for line in commands.splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "trapnets", line
        if argv[1] == "validate":  # the invariant suite has its own tests
            continue
        assert main(argv[1:]) == 0, line
        ran.append(argv[1])
    assert "experiment" in ran
    assert (tmp_path / json.loads(config)["out"]).exists()


def test_config_key_table_lists_every_key():
    rows = re.findall(r"^\| `(\w+)` \|", _section("Command line"), re.M)
    assert sorted(rows) == sorted(_CONFIG_KEYS)
