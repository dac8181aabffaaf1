"""The README's console examples are what the CLI prints.

Every ```console block starts with one `$ eaqec ...` line; the rest of the
block is the expected stdout.  Lines are compared byte for byte, except
that a number in e-notation below 1e-12 (residuals and defects, which
carry BLAS last-bit noise) only has to be below 1e-12 on both sides.
"""

import re
import shlex
from pathlib import Path

import pytest

from eaqec import cli

README = Path(__file__).resolve().parent.parent / "README.md"
_BLOCK = re.compile(r"^```console\n(.*?)^```$", re.MULTILINE | re.DOTALL)
_E_NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?e[-+]\d+")
_NOISE_FLOOR = 1e-12


def console_blocks():
    blocks = _BLOCK.findall(README.read_text())
    assert blocks, "README has no console examples"
    return blocks


def _masked(text: str) -> str:
    """The text with e-notation numbers below the noise floor replaced."""
    return _E_NUMBER.sub(
        lambda m: "<tiny>" if abs(float(m.group())) < _NOISE_FLOOR else m.group(), text)


@pytest.mark.parametrize("block", console_blocks(),
                         ids=lambda b: b.split("\n", 1)[0].removeprefix("$ "))
def test_console_example(block, capsys):
    command, expected = block.split("\n", 1)
    assert command.startswith("$ eaqec ")
    cli.main(shlex.split(command)[2:])
    assert _masked(capsys.readouterr().out) == _masked(expected)
