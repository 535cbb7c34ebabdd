import json
import os

import pytest

from befaas.bundle import ResultsBundle

import synthbundle

BUNDLE_FILES = ("config.json", "client_records.ndjson", "events.ndjson", "rejects.log",
                "audit.json")


def _write_minimal(bundle_dir, events_text):
    os.makedirs(bundle_dir)
    with open(os.path.join(bundle_dir, "audit.json"), "w") as fh:
        fh.write("{}")
    with open(os.path.join(bundle_dir, "events.ndjson"), "w") as fh:
        fh.write(events_text)


def test_read_streams_non_blank_lines_and_counts_them(tmp_path):
    docs = [{"n": 1}, {"n": 2}, {"n": 3}]
    lines = [json.dumps(d) + "\n" for d in docs]
    _write_minimal(str(tmp_path / "b"), lines[0] + "\n" + lines[1] + "   \n" + lines[2] + "\n")
    bundle = ResultsBundle.read(str(tmp_path / "b"))
    assert len(bundle.events) == 3
    assert list(bundle.events) == docs
    assert list(bundle.events) == docs  # a second pass reads the file again
    # A missing file reads as empty.
    assert len(bundle.client_records) == 0 and list(bundle.client_records) == []
    assert bundle.rejects == [] and bundle.audit == {} and not bundle.incomplete


@pytest.mark.parametrize("target", ["same directory", "new directory"])
def test_read_bundle_writes_back_byte_identical(tmp_path, target):
    source = str(tmp_path / "bundle")
    synthbundle.write_bundle(source, 20, seed=3)
    with open(os.path.join(source, "rejects.log"), "w", encoding="utf-8") as fh:
        fh.write("%% not an event %%\nüñí line\n")
    before = {}
    for name in BUNDLE_FILES:
        with open(os.path.join(source, name), "rb") as fh:
            before[name] = fh.read()

    bundle = ResultsBundle.read(source)
    if target == "new directory":
        bundle.out_dir = str(tmp_path / "copy")
    bundle.write(before["config.json"])

    assert sorted(os.listdir(bundle.out_dir)) == sorted(BUNDLE_FILES)
    for name in BUNDLE_FILES:
        with open(os.path.join(bundle.out_dir, name), "rb") as fh:
            assert fh.read() == before[name], name
    assert len(bundle.events) == before["events.ndjson"].count(b"\n") > 0
