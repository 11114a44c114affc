"""The README's CLI examples, sweep config example and library tour run as
written."""

import contextlib
import io
import json
import re
import shlex
import shutil
from pathlib import Path

import pytest

from gsens.cli import main
from gsens.fixtures import fixture_path

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


def _cli_examples() -> list[list[str]]:
    lines = "\n".join(_blocks("sh")).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.startswith("gsens ")]


@pytest.mark.parametrize("argv", _cli_examples(), ids=lambda argv: argv[1])
def test_cli_example(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # examples may write output files
    model = str(fixture_path("synthetic4"))
    assert main([model if a == "$MODEL" else a for a in argv[1:]]) == 0


def test_config_example(tmp_path, monkeypatch):
    (block,) = [b for b in _blocks("json") if '"positions"' in b]
    config = json.loads(block)
    shutil.copy(fixture_path("synthetic4"), tmp_path / config["model"])
    path = tmp_path / "config.json"
    path.write_text(block)
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--config", str(path)]) == 0
    assert (tmp_path / config["output"]).read_text().startswith("delta1,delta2,scheme,")


def test_library_tour():
    (block,) = _blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines()[0] == "True"
