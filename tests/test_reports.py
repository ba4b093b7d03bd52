import os

import pytest

import isingcert.reports as reports
from isingcert.reports import write_report

TABLES = {"rows": (["a", "b"], [[1, 0.5], [2, 0.25]])}


def snapshot(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_report_bytes_match_direct_serialization(tmp_path):
    path = write_report(tmp_path, "r", {"x": 1.5, "b": [1, 2]}, TABLES)
    assert path == tmp_path / "r.json"
    assert snapshot(tmp_path) == {
        "r.json": b'{"b":[1,2],"x":1.5}\n',
        "r_rows.csv": b"a,b\r\n1,0.5\r\n2,0.25\r\n",
    }


class Unprintable:
    def __str__(self):
        raise RuntimeError("row cannot be written")


def test_failed_table_leaves_previous_report(tmp_path):
    write_report(tmp_path, "r", {"x": 1}, TABLES)
    before = snapshot(tmp_path)
    bad = {"rows": (["a", "b"], [[3, 0.1], [Unprintable(), 0.2]])}
    with pytest.raises(RuntimeError):
        write_report(tmp_path, "r", {"x": 2}, bad)
    assert snapshot(tmp_path) == before


def test_failed_file_write_leaves_previous_report(tmp_path, monkeypatch):
    write_report(tmp_path, "r", {"x": 1}, TABLES)
    before = snapshot(tmp_path)
    opened = []

    def open_then_fail(path, *args, **kwargs):
        # the JSON temp file is written, then the CSV one fails partway
        opened.append(path)
        fh = open(path, *args, **kwargs)
        if len(opened) == 2:
            fh.write("a,b\r\n")
            fh.close()
            raise OSError("disk full")
        return fh

    monkeypatch.setattr(reports, "open", open_then_fail, raising=False)
    with pytest.raises(OSError, match="disk full"):
        write_report(tmp_path, "r", {"x": 2}, TABLES)
    assert len(opened) == 2 and all(p.name.endswith(".tmp") for p in opened)
    assert snapshot(tmp_path) == before
    assert not any(name.endswith(".tmp") for name in os.listdir(tmp_path))


def test_failed_replace_leaves_no_temp_file(tmp_path, monkeypatch):
    write_report(tmp_path, "r", {"x": 1}, TABLES)
    before = snapshot(tmp_path)
    real_replace = os.replace
    replaced = []

    def replace_then_fail(src, dst):
        # the JSON temp file replaces its target, then the CSV replace fails
        if replaced:
            raise OSError("cross-device link")
        replaced.append(dst)
        real_replace(src, dst)

    monkeypatch.setattr(reports.os, "replace", replace_then_fail)
    with pytest.raises(OSError, match="cross-device"):
        write_report(tmp_path, "r", {"x": 2}, TABLES)
    after = snapshot(tmp_path)
    assert sorted(after) == ["r.json", "r_rows.csv"]
    assert after["r.json"] == b'{"x":2}\n'
    assert after["r_rows.csv"] == before["r_rows.csv"]


@pytest.mark.parametrize("field", ["a,b", 'say "x"', "a\rb", "a\nb", None])
def test_csv_field_that_csv_would_quote_raises(field):
    # csv.writer would quote the field, or write None as an empty field
    with pytest.raises(ValueError, match="CSV field"):
        reports.csv_text(["a", "b"], [[1, 0.5], [2, field]])
    assert reports.csv_text(["a", "b"], [[1, "None"], [2, True]]) == "a,b\r\n1,None\r\n2,True\r\n"
