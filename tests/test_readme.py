"""The README's library example and CLI quick start run as written."""

import re
import shlex
from pathlib import Path

from ora_bob import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_block_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    assert len(scope["lanes"]) == 8
    assert capsys.readouterr().out.strip()


def _quick_start_commands() -> list[list[str]]:
    """Each command of the bash block under "Quick start (CLI)", with its
    backslash continuations joined and its comments dropped."""
    section = README.read_text().split("## Quick start (CLI)", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, flags=re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.startswith("#")]


def test_readme_cli_quick_start_runs(tmp_path, monkeypatch, capsys):
    commands = _quick_start_commands()
    assert [argv[:2] for argv in commands] == [
        ["ora-bob", name] for name in ("gen", "run", "sweep", "oracle", "audit")
    ]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, (argv, capsys.readouterr().out)
