"""Tests of the benchmark itself: answer checks, metric tables, a quick pass.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core.optimizer import optimize  # noqa: E402
from repro.serialization import problem_from_dict  # noqa: E402
from repro.serving.fingerprint import fingerprint_problem  # noqa: E402

from perfbench.bench import END_TO_END_UNITS  # noqa: E402
from perfbench.check import response_error  # noqa: E402
from perfbench.layers import PER_LAYER_UNITS  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    Request,
    batch_request,
    generated_document,
    plan_request,
    permute_document,
)


def _answer(document: dict) -> dict:
    result = optimize(problem_from_dict(document), algorithm="branch_and_bound")
    order = list(result.order)
    return {
        "order": order,
        "services": [document["services"][i]["name"] for i in order],
        "cost": result.cost,
        "optimal": True,
    }


def _verdict(request: Request, *answers: dict, status: int = 200) -> str | None:
    body = answers[0] if request.path == "/plan" else {"responses": list(answers)}
    return response_error(request, status, json.dumps(body).encode())


@pytest.fixture(scope="module")
def document() -> dict:
    return generated_document(7, 42, "test")


def test_correct_answer_passes(document):
    assert _verdict(plan_request(document), _answer(document)) is None


@pytest.mark.parametrize(
    "tamper",
    [
        lambda a: {**a, "cost": a["cost"] * 1.000001},
        lambda a: {**a, "order": a["order"][:-1] + a["order"][:1]},
        lambda a: {**a, "order": a["order"][:-1]},
        lambda a: {**a, "order": list(reversed(a["order"]))},
        lambda a: {**a, "services": list(reversed(a["services"]))},
    ],
    ids=["wrong-cost", "repeated-service", "missing-service", "other-order", "wrong-names"],
)
def test_tampered_answer_fails(document, tamper):
    assert _verdict(plan_request(document), tamper(_answer(document))) is not None


def test_precedence_violation_fails(document):
    constrained = {**document, "precedence": [[1, 0]]}
    answer = _answer(constrained)
    assert _verdict(plan_request(constrained), answer) is None
    order = answer["order"]
    first, second = order.index(1), order.index(0)
    order[first], order[second] = 0, 1
    assert "before" in _verdict(plan_request(constrained), answer)


def test_batch_answers_are_checked_one_by_one(document):
    other = generated_document(5, 7, "test")
    request = batch_request([document, other])
    assert _verdict(request, _answer(document), _answer(other)) is None
    assert _verdict(request, _answer(document)) is not None
    assert _verdict(request, _answer(document), {**_answer(other), "cost": 0.0}) is not None


def test_http_errors_fail(document):
    request = plan_request(document)
    assert _verdict(request, {"error": "boom"}, status=500).startswith("HTTP 500")
    assert response_error(request, 0, b"") == "transport error"


def test_permutation_keeps_the_fingerprint(document):
    permuted = permute_document(document, [3, 0, 6, 1, 5, 2, 4])
    original = problem_from_dict(document)
    assert fingerprint_problem(problem_from_dict(permuted)).key == fingerprint_problem(original).key


def test_workloads_are_deterministic():
    for workload in WORKLOADS.values():
        first, second = workload(5), workload(5)
        assert [first.request(i).body for i in range(20)] == [
            second.request(i).body for i in range(20)
        ]


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_quick_pass_prints_every_metric(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "2", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    units = PER_LAYER_UNITS if trace == "1" else END_TO_END_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "warm_n24", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
