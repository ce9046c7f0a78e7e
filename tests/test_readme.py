"""README's examples run as written: its config example parses and builds an
experiment, every `fedsim` command it shows parses, and no name its "Removed
API" section lists as gone still resolves in `fedsim`."""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import fedsim
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


MODULES = [fedsim] + [importlib.import_module(f"fedsim.{m.name}")
                      for m in pkgutil.iter_modules(fedsim.__path__)]


def gone_names():
    """The names that lead each bullet of the first list under "## Removed API"
    (`a.b(args)`, `c.d`: ...), without their arguments."""
    section = README.split("\n## Removed API\n", 1)[1]
    bullets = re.search(r"^- .*?(?=\n\n)", section, re.MULTILINE | re.DOTALL).group()
    for lead in re.findall(r"^- ((?:`[^`]+`(?:, )?)+):", bullets, re.MULTILINE):
        for span in re.findall(r"`([^`]+)`", lead):
            yield span.split("(")[0]


def resolves(name) -> bool:
    """Whether `name` is an attribute chain from the package (`fedsim.x`) or
    from any of its modules; a dataclass field counts as an attribute."""
    *parents, last = name.split(".")
    roots = MODULES
    if parents[:1] == ["fedsim"]:
        roots, parents = [fedsim], parents[1:]
    for obj in roots:
        for part in parents:
            obj = getattr(obj, part, None)
        if hasattr(obj, last) or last in getattr(obj, "__dataclass_fields__", ()):
            return True
    return False


def test_resolves_finds_what_is_there():
    for name in ("ClientGroup.async_steps", "RunResult.final_scores", "losses.fv_cos_batch",
                 "fedsim.run_experiment", "ConvexProblem.client_grads"):
        assert resolves(name), name
    assert not resolves("fedsim.correlation_degree")   # in fedsim.aggregation, not exported


@pytest.mark.parametrize("name", list(gone_names()))
def test_removed_names_are_gone(name):
    assert not resolves(name)


def test_removed_api_lists_the_names_gone():
    assert {"TimelineLog.append", "ConvexProblem.grad", "RunResult.final_points",
            "fedsim.sgd_step"} <= set(gone_names())
