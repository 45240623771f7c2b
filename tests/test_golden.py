"""The checked-in result corpus repeats byte for byte (see regen_golden.py)."""

from regen_golden import GOLDEN, write_corpus


def test_result_corpus_repeats_byte_for_byte(tmp_path):
    write_corpus(tmp_path)
    names = sorted(p.name for p in GOLDEN.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
