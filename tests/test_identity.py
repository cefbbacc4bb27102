"""Output identity of the README and CI commands whose output is exact.

``identity_digests.json`` maps each command below to its exit code and
the sha256 of its JSON document, with ``run.wall_time_ms`` zeroed and
``run.versions`` dropped.  A change that moves an output must rewrite
the file, and its diff then names the commands that moved:

    PYTHONPATH=src python tests/test_identity.py

Left out: the smooth weight and ``poisson``, whose floats come from the
platform's libm, and the n = 8 refusal and the n = 6, p = 5 ledger,
which CI runs as fresh-process probes.  No README or CI command runs the
indicator weight, so the README ledger is also run with it.
"""
import hashlib
import io
import json
import shlex
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import vdc.cli as cli

DIGESTS = Path(__file__).parent / "identity_digests.json"

COMMANDS = [
    # README
    'count --poly "x1^4+x2^4-2*x3^4" --n 3 --B 1 --modulus 3',
    'count --poly "x1^4+x2^4+x3^4" --n 3 --B 6 --weight hat',
    'poly diff --poly "x1^3" --n 1 --y 1',
    'poly diff --poly "x1^3+x2^3" --n 2 --y 1,0 --z 0,1',
    'geom sing --form "x1^4+x2^4+x3^4+x4^4+x5^4" --n 5 --field 7',
    'geom rcheck --form "x1^4+x2^4+x3^4" --n 3 --p 5',
    'pipeline --poly "x1^3+x2^3+x3^3-x1*x2*x3" --n 3 --B 4 --pi 2 --p 3 --q 5 --pair-table',
    'exponents --n 29',
    'primes --B 64 --n 10 --form "x1^4+x2^4+x3^4+x4^4+x5^4+x6^4+x7^4+x8^4+x9^4+x10^4"',
    # the README ledger with the indicator weight
    'pipeline --poly "x1^3+x2^3+x3^3-x1*x2*x3" --n 3 --B 4 --pi 2 --p 3 --q 5 --pair-table'
    ' --weight indicator',
    # CI
    'pipeline --poly "x1^3+x2^3+x3^3-x1*x2*x3+x1+2" --n 3 --B 4 --pi 5 --p 3 --q 7 --pair-table',
    'pipeline --poly "x1^3+2*x2^3-x3^3+x1*x2*x3+x2" --n 3 --B 12 --pi 2 --p 3 --q 53',
    'pipeline --poly "x1^4+x2^4-x3^4+2*x4^4+x1*x2^3" --n 4 --B 4 --pi 2 --p 3 --q 17'
    ' --pair-table --budget 4000000000',
    'pipeline --poly "x1^4+x2^4-x3^4+2*x4^4+x1*x2^3+x1" --n 4 --B 4 --pi 2 --p 3 --q 17'
    ' --pair-table --budget 4000000000',
    'count --poly "x1^4+x2^4+x3^4+x1*x2*x3^2" --n 3 --B 6 --weight hat',
    'count --poly "x1^4-x2^4" --poly "x3^4+2*x4^4" --n 4 --B 4 --modulus 7',
    'count --poly "x1^4+x2^4+x3^4+x4^4-x5^4-x6^4-x7^4-x8^4" --n 8 --B 6 --modulus 17',
    'geom sing --form "x1^4+x2^4+x3^4+x4^4+x5^4" --n 5 --field 3^2',
    'geom sing --form "x1^4+x2^4+x1*x2*x3^2" --n 3 --field 2^3',
    'geom sing --form "x1^2+x2*x3" --form "x2^2+x1*x4" --n 4 --field 7^2',
    'geom rcheck --form="-x1^4+2*x2^4-x3^4-x4^4-x5^4" --n 5 --p 7',
    'geom rcheck --form "2*x1^4-x1*x2^3-3*x2^4+x3^4-2*x3^3*x4+x4^4-2*x5^4" --n 5 --p 5',
    'geom sing --form "x1^3+x2^3+x1*x2^2" --n 2 --field 2^10',
    'geom rcheck --form "x1^4+x2^4+x3^4+x4^4" --n 4 --p 11 --seed -1 --checks r2',
]


def digest(command: str) -> dict:
    """Exit code and sha256 of the normalized JSON of one in-process run."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.dispatch(shlex.split(command))
    doc = json.loads(buf.getvalue())
    if "run" in doc:
        doc["run"]["wall_time_ms"] = 0
        del doc["run"]["versions"]
    text = json.dumps(doc, separators=(",", ":"))
    return {"exit": code, "sha256": hashlib.sha256(text.encode()).hexdigest()}


def test_digest_file_lists_the_commands():
    assert list(json.loads(DIGESTS.read_text())) == COMMANDS


def test_readme_commands_are_covered():
    from test_cli import _readme_commands

    listed = {tuple(shlex.split(c)) for c in COMMANDS}
    for argv in _readme_commands():
        if argv[0] != "poisson":
            assert tuple(argv) in listed, argv


@pytest.mark.parametrize("command", COMMANDS)
def test_output_matches_digest(command):
    assert digest(command) == json.loads(DIGESTS.read_text())[command]


if __name__ == "__main__":
    text = json.dumps({c: digest(c) for c in COMMANDS}, indent=1) + "\n"
    DIGESTS.write_text(text)
    print(f"{len(COMMANDS)} digests -> {DIGESTS}", file=sys.stderr)
