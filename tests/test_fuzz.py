"""Seeded byte mutations of every bundled input, run through the CLI.

A damaged input may load and give other numbers (exit 0) or fail at load
with a data error (exit 3). It must never end in a traceback, a usage exit
or an uncaught exception.
"""

import random
import shutil

import pytest

from lexgender import cli
from lexgender.data import gold_path, snapshot_path, toy_corpus_path, wndb_dir

RUNS = 100  # per input; each run is one cli.main call on a small file
NOISE = b"\x00\t\n\r \"',.:;{}[]0123456789abz\xc3\xa9\xe2\x80\x94\xff"


def mutate(data: bytes, rng: random.Random) -> bytes:
    """``data`` after one to four random byte flips, deletions, insertions or repeats."""
    data = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(len(data))
        op = rng.randrange(4)
        if op == 0:
            data[at] = rng.choice(NOISE)
        elif op == 1:
            del data[at : at + rng.randint(1, 8)]
        elif op == 2:
            data[at:at] = bytes(rng.choices(NOISE, k=rng.randint(1, 4)))
        else:
            data[at:at] = data[at : at + rng.randint(1, 40)]
    return bytes(data)


def _gold(tmp_path, rng):
    path = tmp_path / "gold.tsv"
    path.write_bytes(mutate(gold_path().read_bytes(), rng))
    return ["evaluate", "--offline", "--gold", str(path)]


def _snapshot(tmp_path, rng):
    path = tmp_path / "snapshot.json"
    path.write_bytes(mutate(snapshot_path("merriam_webster").read_bytes(), rng))
    return ["evaluate", "--snapshot", str(path)]


def _tagged(tmp_path, rng):
    path = tmp_path / "tagged.tsv"
    path.write_bytes(mutate(toy_corpus_path().read_bytes(), rng))
    return ["corpus-report", "--offline", str(path)]


def _wndb(tmp_path, rng):
    directory = tmp_path / "wndb"
    shutil.rmtree(directory, ignore_errors=True)  # also drops the cache the last run wrote
    directory.mkdir()
    for name in ("index.noun", "data.noun"):
        shutil.copyfile(wndb_dir() / name, directory / name)
    target = directory / rng.choice(("index.noun", "data.noun"))
    target.write_bytes(mutate(target.read_bytes(), rng))
    return ["evaluate", "--wordnet", str(directory)]


@pytest.mark.parametrize("make_argv", [_gold, _snapshot, _tagged, _wndb])
def test_mutated_input_exits_0_or_3(tmp_path, capsys, make_argv):
    rng = random.Random(f"fuzz-{make_argv.__name__}")
    codes = set()
    for run in range(RUNS):
        argv = make_argv(tmp_path, rng)
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code in (0, 3), (run, argv, code, err)
        assert "Traceback" not in err, (run, argv, err)
        codes.add(code)
    assert 3 in codes  # the mutations do reach the checks
