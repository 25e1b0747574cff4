import os
import shutil
import threading
from pathlib import Path

import pytest

from lexgender.data import (
    BUNDLED_SNAPSHOT_IDS,
    gold_path,
    snapshot_path,
    toy_corpus_path,
    wndb_dir,
)
from lexgender.evaluation import load_gold
from lexgender.providers import SnapshotProvider, WordNetProvider

TESTS_DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def bundled_providers():
    return [SnapshotProvider(snapshot_path(pid)) for pid in BUNDLED_SNAPSHOT_IDS]


@pytest.fixture(scope="session")
def bundled_wndb(tmp_path_factory):
    """A copy of the bundled WNDB's two text files: a load writes its index cache here, not into the package."""
    directory = tmp_path_factory.mktemp("wndb")
    for name in ("data.noun", "index.noun"):
        shutil.copyfile(wndb_dir() / name, directory / name)
    return directory


@pytest.fixture(scope="session")
def wordnet(bundled_wndb):
    return WordNetProvider(bundled_wndb)


@pytest.fixture(scope="session")
def gold():
    return load_gold(gold_path())


@pytest.fixture(scope="session")
def toy_corpus_file():
    return toy_corpus_path()


@pytest.fixture()
def tests_data():
    return TESTS_DATA


@pytest.fixture()
def make_fifo():
    """``make_fifo(path, idle_writer)`` puts a FIFO at ``path``, held open by a writer that never writes if asked."""
    if not hasattr(os, "mkfifo"):
        pytest.skip("os.mkfifo is not available")
    writers = []

    def make(path, idle_writer=False):
        os.mkfifo(path)
        if idle_writer:  # opened read-write, so this open waits for no reader
            writers.append(os.open(path, os.O_RDWR | os.O_NONBLOCK))

    yield make
    for fd in writers:
        os.close(fd)


@pytest.fixture()
def within_5s():
    """``within_5s(fn, *args)`` returns or raises as ``fn(*args)`` does, run in a daemon thread.

    A call still blocked after 5 s fails the test instead of hanging the suite.
    """

    def run(fn, *args):
        outcome = {}

        def target():
            try:
                outcome["value"] = fn(*args)
            except BaseException as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive(), f"{getattr(fn, '__qualname__', fn)} still blocked after 5 s"
        if "error" in outcome:
            raise outcome["error"]
        return outcome["value"]

    return run
