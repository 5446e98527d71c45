"""The library example and every CLI call in README.md run as written, the
README names every family, sum and identity that the package has, and
every test or source file that it names exists."""

import doctest
import re
from pathlib import Path

from dowling import cli, families
from dowling.identities import REGISTRY

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0 and result.failed == 0


def test_readme_cli_examples_exit_0(capsys):
    """Every `dowling ...` line of the README's sh blocks, its comment
    dropped; a renamed family, flag or identity in the docs fails here."""
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    lines = (re.sub(r" *#.*", "", line) for block in blocks for line in block.splitlines())
    calls = [line.split()[1:] for line in lines if line.startswith("dowling ")]
    assert calls
    for argv in calls:
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().err == "", argv


def _listed(start, end) -> list:
    """The backquoted names of the README from `start` to the next `end`."""
    text = README.read_text(encoding="utf-8")
    begin = text.index(start) + len(start)
    return re.findall(r"`([^`]+)`", text[begin : text.index(end, begin)])


def test_readme_lists_every_family_sum_and_identity():
    assert sorted(_listed("Triangle families:", "Sum families:")) == sorted(families.FAMILIES)
    assert sorted(_listed("Sum families:", "\n\n")) == sorted(cli.SUMS)
    identities = _listed("Identities for `verify`:", "(the last needs")
    assert sorted(identities) == sorted(REGISTRY)
    assert [name for name, ident in REGISTRY.items() if ident.needs_oracle] == identities[-1:]


def test_readme_names_only_files_that_exist():
    named = set(re.findall(r"(?:tests|src/dowling)/\w+\.py", README.read_text(encoding="utf-8")))
    assert named
    assert sorted(path for path in named if not (README.parent / path).exists()) == []
