"""Byte-identity of the CLI on the golden corpus (see tests/cli_corpus.py)."""

import json

import pytest

from cli_corpus import CORPUS, run_entry

RECORDS = json.loads(CORPUS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("record", RECORDS, ids=[" ".join(r["argv"]) for r in RECORDS])
def test_cli_output_is_pinned(record):
    got = run_entry(record)
    assert got == {key: record[key] for key in got}
