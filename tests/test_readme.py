"""The README's examples run as written.

Every ``gen32 ...`` line of the CLI section runs, in order, through
``gen32.cli.main`` in a fresh working directory (a later line may read a
file an earlier one wrote), and the values its comments state are
checked.  The "Library quick start" block runs and prints what its
comments say.
"""

import json
import re
import shlex
from pathlib import Path

from gen32.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _section(title):
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end != -1 else len(README)]


def _blocks(text, language):
    return re.findall(rf"```{language}\n(.*?)```", text, flags=re.S)


def _cli_lines():
    return [
        line
        for block in _blocks(_section("CLI"), "sh")
        for line in block.splitlines()
        if line.startswith("gen32 ")
    ]


def test_readme_cli_lines_exit_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    outputs = {}
    lines = _cli_lines()
    assert len(lines) == 15
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, line
        outputs[" ".join(argv)] = out

    table1 = json.loads(outputs["analyze table1 --i 1"])
    assert table1["degree"] == 25
    assert table1["order"] == 400
    assert table1["transitivity"]["rank"] == 4
    assert table1["d"]["value"] == 3
    assert json.loads(outputs["analyze zgroup --m 1 --n 4 --r 1"])["d"]["value"] == 1


def test_readme_size_cap_examples(capsys):
    start = README.index("\n### Size caps\n")
    section = README[start : README.index("\n### ", start + 1)]
    over_the_point_cap, over_the_element_cap = re.findall(r"`gen32 ([^`]+)`", section)
    assert main(shlex.split(over_the_point_cap)) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("error:") == 1
    assert "exceeds cap" in captured.err
    assert main(shlex.split(over_the_element_cap)) == 0
    assert "indeterminate" in json.loads(capsys.readouterr().out)["d"]


def test_readme_library_quick_start_prints_its_comments(capsys):
    (block,) = _blocks(_section("Library quick start"), "python")
    exec(block, {})
    assert capsys.readouterr().out.split() == ["4", "3", "2"]
