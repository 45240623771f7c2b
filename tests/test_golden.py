"""The checked-in result corpus repeats byte for byte (see regen_golden.py)."""

import json
import shutil

from regen_golden import GOLDEN, corpus_diff, write_corpus


def test_result_corpus_repeats_byte_for_byte(tmp_path):
    write_corpus(tmp_path)
    names = sorted(p.name for p in GOLDEN.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_corpus_diff_names_each_moved_field(tmp_path):
    shutil.copytree(GOLDEN, tmp_path, dirs_exist_ok=True)
    assert corpus_diff(GOLDEN, tmp_path) == []
    result = json.loads((tmp_path / "oracle.json").read_text())
    lp = result["suites"]["lp"][1]
    old_value = lp["lp_plus_one"]  # (x + 1) - 1 need not give x back
    lp["lp_plus_one"] = old_value + 1.0
    (tmp_path / "oracle.json").write_text(json.dumps(result))
    lines = (tmp_path / "desk_lps.txt").read_text().splitlines()
    old_line = lines[2]
    lines[2] = "changed"
    (tmp_path / "desk_lps.txt").write_text("\n".join(lines + ["added"]) + "\n")
    (tmp_path / "paths.json").unlink()
    rows = (tmp_path / "compare.csv").read_text().splitlines()
    (tmp_path / "compare.csv").write_text("\n".join(rows[:-1] + ["brute,moved"]) + "\n")
    diff = corpus_diff(GOLDEN, tmp_path)
    assert diff[0] == f"compare.csv: line {len(rows)}: {rows[-1]} -> brute,moved"
    assert diff[1:3] == [f"desk_lps.txt: line 3: {old_line} -> changed",
                         f"desk_lps.txt: line {len(lines) + 1}: (absent) -> added"]
    assert diff[3] == (f"oracle.json: suites.lp[1].lp_plus_one: "
                       f"{old_value} -> {lp['lp_plus_one']}")
    gone = diff[4:]  # every field of the deleted file
    assert gone and all(line.startswith("paths.json: ") and line.endswith(" -> (absent)")
                        for line in gone)


def test_diff_mode_exits_1_when_anything_moved(monkeypatch, capsys):
    """``--diff`` is a check: exit 0 and one line when the regenerated corpus
    matches, exit 1 and the moved lines when it does not; it writes nothing."""
    import regen_golden

    before = {p.name: p.read_bytes() for p in GOLDEN.iterdir()}
    monkeypatch.setattr(regen_golden, "write_corpus",
                        lambda directory: shutil.copytree(GOLDEN, directory, dirs_exist_ok=True))
    assert regen_golden.main(["--diff"]) == 0
    assert capsys.readouterr().out == "no field or line differs\n"

    def moved(directory):
        shutil.copytree(GOLDEN, directory, dirs_exist_ok=True)
        with open(directory / "det.tsv", "a") as fh:
            fh.write("added\n")

    monkeypatch.setattr(regen_golden, "write_corpus", moved)
    assert regen_golden.main(["--diff"]) == 1
    lines = (GOLDEN / "det.tsv").read_text().splitlines()
    assert capsys.readouterr().out == f"det.tsv: line {len(lines) + 1}: (absent) -> added\n"
    assert {p.name: p.read_bytes() for p in GOLDEN.iterdir()} == before
