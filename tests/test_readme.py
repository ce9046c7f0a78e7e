"""README's examples run as written: its config example parses and builds an
experiment, and every `fedsim` command it shows parses."""

import re
import shlex
from pathlib import Path

import pytest

from fedsim.cli import build_parser
from fedsim.config import build_experiment_config, parse_config_text

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.MULTILINE | re.DOTALL)


def fedsim_commands():
    """Each `fedsim ...` line of the sh blocks, continuations joined, as argv."""
    for block in blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["fedsim"]:
                yield argv[1:]


def test_readme_has_examples():
    assert blocks("ini") and len(list(fedsim_commands())) >= 5


@pytest.mark.parametrize("text", blocks("ini"), ids=lambda text: text.split("\n")[0])
def test_ini_examples_build_an_experiment(text):
    values, _ = parse_config_text(text)
    build_experiment_config(values)


@pytest.mark.parametrize("argv", list(fedsim_commands()), ids=" ".join)
def test_fedsim_commands_parse(argv):
    build_parser().parse_args(argv)
