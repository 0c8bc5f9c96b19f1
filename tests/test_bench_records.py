"""The committed benchmark records: every ``BENCH_*.json`` at the repository root
parses and carries the keys that every record shares."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SHARED_KEYS = {"command", "machine", "order", "parent", "runs", "summary", "what"}


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_parses_with_the_shared_keys(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record, dict)
    assert SHARED_KEYS <= record.keys(), sorted(SHARED_KEYS - record.keys())
