"""Every ``python`` code block of ``README.md`` runs as written, and every
``driftmon`` command of its ``sh`` blocks exits 0."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from driftmon.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language: str) -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.M | re.S)


def test_every_python_block_runs() -> None:
    blocks = _blocks("python")
    assert blocks
    for source in blocks:
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def test_every_shell_command_exits_zero(tmp_path: Path, monkeypatch, capsys) -> None:
    """The shell blocks run top to bottom, as the quick start reads, with
    the example directories moved under ``tmp_path``; installing and
    testing (``pip``, ``pytest``) are left out."""
    paths = {"/tmp/monstore": str(tmp_path / "monstore"), "/tmp/mondata": str(tmp_path / "mondata")}

    def local(word: str) -> str:
        for example, moved in paths.items():
            word = word.replace(example, moved)
        return word

    monkeypatch.delenv("MON_STORE_ROOT", raising=False)
    monkeypatch.delenv("MON_DATA_ROOT", raising=False)
    commands = 0
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = [local(w) for w in shlex.split(line, comments=True)]
            if not words or words[0] in ("pip", "pytest"):
                continue
            if words[0] == "export":
                name, _, value = words[1].partition("=")
                monkeypatch.setenv(name, value)
                continue
            assert words[0] == "driftmon", line
            code = main(words[1:])
            assert code == EXIT_OK, (line, capsys.readouterr().err)
            commands += 1
    assert commands >= 14
