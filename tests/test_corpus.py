"""Golden corpus replay."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from difftower import corpus
from difftower.errors import DiffTowerError


def test_cases_present():
    names = corpus.list_cases()
    assert len(names) >= 6


def test_all_cases_tagged():
    for name in corpus.list_cases():
        case = corpus.load_case(name)
        assert case.tag in corpus.VALID_TAGS


@pytest.mark.parametrize("name", corpus.list_cases())
def test_replay(name):
    corpus.replay(corpus.load_case(name))


@pytest.mark.parametrize("value", ["1", "abc"])
def test_replay_ignores_the_environment(monkeypatch, value):
    # the cell cap comes only from --max-cells: no variable in the
    # caller's environment reaches a replay
    monkeypatch.setenv("DIFFIELD_MAX_CELLS", value)
    for name in corpus.list_cases():
        corpus.replay(corpus.load_case(name))


REPLAY_ALL = """import json
from difftower import corpus
print(json.dumps([corpus.run_case(corpus.load_case(n))
                  for n in corpus.list_cases()]))
"""


def test_replay_is_independent_of_the_hash_seed():
    src = str(Path(corpus.__file__).resolve().parent.parent)
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", REPLAY_ALL], env=env,
                             capture_output=True, text=True, check=True)
        runs.append(json.loads(out.stdout))
    assert runs[0] == runs[1]
    cases = [corpus.load_case(n) for n in corpus.list_cases()]
    assert runs[0] == [[c.expected_output, c.expected_exit] for c in cases]


def test_bad_tag_rejected(tmp_path, monkeypatch):
    (tmp_path / "untagged").mkdir()
    (tmp_path / "untagged" / "meta.txt").write_text("tag = GUESSED\nexit = 0\n")
    monkeypatch.setattr(corpus, "DATA_DIR", tmp_path)
    with pytest.raises(DiffTowerError, match="bad tag 'GUESSED'"):
        corpus.load_case("untagged")


def test_mismatch_reports_diff(tmp_path):
    case = corpus.load_case("log-recover")
    broken = corpus.CorpusCase(
        name=case.name, tower_path=case.tower_path, argv=case.argv,
        expected_output=case.expected_output + "extra\n",
        expected_exit=case.expected_exit, tag=case.tag)
    with pytest.raises(corpus.Mismatch) as e:
        corpus.replay(broken)
    assert "-extra" in str(e.value)
