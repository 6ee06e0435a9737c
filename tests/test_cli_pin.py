"""The CLI's exit code and stdout digest on every corpus file under every
command line of the benchmark's ``CORPUS_COMMANDS`` table, and under
``is-marked-basis --trace``, pinned in ``tests/cli_pin.json``, so that a
refactor claiming byte-identical output is held to it here.

When an output change is deliberate, re-pin and review the diff of the pin
file (it names each run whose output moved):

    PYTHONPATH=src python tests/test_cli_pin.py
"""

import ast
import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

from involutive.cli import main

ROOT = Path(__file__).resolve().parent.parent
PIN = Path(__file__).resolve().parent / "cli_pin.json"
# Pinned too, though the benchmark does not run it: the only report that
# prints the coefficients of the criterion's prolongations.
EXTRA_COMMANDS = [("is-marked-basis", "--trace")]


def corpus_commands() -> list[tuple[str, ...]]:
    """Every command line of ``CORPUS_COMMANDS`` in ``bench/workloads.py``,
    read without importing the benchmark."""
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "CORPUS_COMMANDS":
            table = ast.literal_eval(node.value)
            return [cmd for lines in table.values() for cmd in lines]
    raise LookupError("CORPUS_COMMANDS not found in bench/workloads.py")


def outcomes() -> dict[str, list]:
    """``{"<command line> <corpus file>": [exit code, sha256 of stdout]}``."""
    out = {}
    for path in sorted((ROOT / "corpus").glob("*.json")):
        for cmd in corpus_commands() + EXTRA_COMMANDS:
            stdout = io.StringIO()
            with redirect_stdout(stdout):
                code = main([cmd[0], "--input", str(path), *cmd[1:]])
            digest = hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()
            out[f"{' '.join(cmd)} {path.name}"] = [code, digest]
    return out


def test_cli_output_on_the_corpus_is_pinned():
    pinned = json.loads(PIN.read_text(encoding="utf-8"))
    actual = outcomes()
    runs = pinned.keys() | actual.keys()
    assert sorted(run for run in runs if pinned.get(run) != actual.get(run)) == []


if __name__ == "__main__":
    # one run per line, so the diff of a re-pin names the runs that moved
    runs = sorted(outcomes().items())
    lines = ",\n".join(f"{json.dumps(run)}: {json.dumps(outcome)}" for run, outcome in runs)
    PIN.write_text("{\n" + lines + "\n}\n", encoding="utf-8")
