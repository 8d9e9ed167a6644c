"""Tests for atomic file writes (`repro.atomicio`).

A reader (or a resumed run) must never observe a half-written results
file, report, or checkpoint: writes go to a temp file in the destination
directory and land via ``os.replace``.
"""

import json
import os

import pytest

from repro.atomicio import atomic_write_json, atomic_write_text


class TestAtomicWriteText:
    def test_writes_content(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(str(path), "hello\n")
        assert path.read_text() == "hello\n"

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        atomic_write_text(str(path), "new")
        assert path.read_text() == "new"

    def test_leaves_no_temp_files(self, tmp_path):
        atomic_write_text(str(tmp_path / "out.txt"), "x")
        assert sorted(os.listdir(tmp_path)) == ["out.txt"]

    def test_failed_write_preserves_original(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text('{"ok": true}')
        with pytest.raises(TypeError):
            # A non-serializable payload fails mid-write; the original
            # file must survive untouched and the temp file must be gone.
            atomic_write_json(str(path), {"bad": object()})
        assert path.read_text() == '{"ok": true}'
        assert sorted(os.listdir(tmp_path)) == ["out.json"]


class TestAtomicWriteJson:
    def test_round_trips_payload(self, tmp_path):
        path = tmp_path / "out.json"
        payload = {"records": [[0, [["a", [0.5, 1.0], 3]]]], "n": 2}
        atomic_write_json(str(path), payload)
        assert json.loads(path.read_text()) == payload

    def test_floats_round_trip_exactly(self, tmp_path):
        # The checkpoint bit-identity guarantee rests on this: Python's
        # repr-based JSON floats reparse to the identical double.
        path = tmp_path / "out.json"
        values = [0.1 + 0.2, 1.0 / 3.0, 1e-308, 2**53 + 1.0]
        atomic_write_json(str(path), values)
        assert json.loads(path.read_text()) == values

    def test_indents_by_two(self, tmp_path):
        # Surrogate and policy tables are written this way; their files
        # keep one layout.
        path = tmp_path / "out.json"
        payload = {"cells": [{"p": 0.5}], "meta": {"origin": "test"}}
        atomic_write_json(str(path), payload)
        assert path.read_text() == json.dumps(payload, indent=2)
