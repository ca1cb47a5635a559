"""The README's CLI examples run, and their literal outputs hold."""

import pathlib
import re
import shlex

import pytest

from foldcat import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
# subcommands whose README comment is their literal output
LITERAL = {"seq", "word"}


def cli_examples():
    """(argv, trailing comment) for each foldcat line of the CLI block."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## CLI\s+```sh\n(.*?)```", text, re.S).group(1)
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        if argv and argv[0] == "foldcat":
            examples.append((argv[1:], comment.strip()))
    return examples


EXAMPLES = cli_examples()


def test_cli_block_found():
    assert len(EXAMPLES) >= 2
    assert LITERAL <= {argv[0] for argv, _ in EXAMPLES}


@pytest.mark.parametrize("argv, comment", EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_readme_example(capsys, argv, comment):
    assert cli.run(argv) == 0
    out = capsys.readouterr().out
    if argv[0] in LITERAL:
        assert out == comment + "\n"


def test_readme_states_each_suites_clamp_and_fixed_size():
    text = " ".join(README.read_text(encoding="utf-8").split())
    clamps, fixed = re.search(r"Some suites clamp `--size`: (.*?)\. Each",
                              text).group(1).split("; ")
    stated = {name: int(size) for names, size in
              re.findall(r"((?:[\w-]+ and )?[\w-]+) to (\d+)", clamps)
              for name in names.split(" and ")}
    assert stated == {name: clamp for name, (_, _, clamp)
                      in cli._SUITES.items() if clamp is not None}
    # the suites that ignore --size and run at one size of their own
    runs = re.findall(r"([\w-]+) (?:always runs )?at (?:length )?(\d+)",
                      fixed)
    assert [name for name, _ in runs] == ["unique-search", "lemma5"]
    for name, size in runs:
        run, limit, clamp = cli._SUITES[name]
        assert limit is None and clamp is None
        assert run(1, None).size == int(size)
