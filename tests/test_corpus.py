"""Golden corpus replay."""

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
