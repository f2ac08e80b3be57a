"""Tests of the runtime provenance recorded in benchmark artifacts."""

from __future__ import annotations

import json
import os

from repro.utils import provenance, runtime_provenance


def test_records_machine_and_commit_and_is_json_ready():
    recorded = runtime_provenance()
    assert recorded["cpu_count"] == os.cpu_count()
    commit = recorded["git_commit"]
    assert commit is None or (isinstance(commit, str) and commit)
    assert json.loads(json.dumps(recorded)) == recorded


def test_commit_is_none_without_git(monkeypatch):
    def no_git(*args, **kwargs):
        raise FileNotFoundError("git")

    monkeypatch.setattr(provenance.subprocess, "run", no_git)
    assert runtime_provenance()["git_commit"] is None
