"""Property-based tests for the vectorized subset-DP kernel.

The vector kernel (:mod:`repro.core.vector`) promises *bit-identical*
agreement with the scalar kernel: the subset DP returns the same plan, the
same cost (asserted with ``==``, never approx) and the same ``dp_states`` on
both.  Problems are drawn with and without sink transfers, with and without
precedence constraints, and with proliferative (sigma > 1) services.

numpy is optional: the numpy-dependent tests skip cleanly when it is absent,
and the fallback tests run the library in a subprocess with the numpy import
*blocked*, proving the scalar path stays fully functional without it."""

from __future__ import annotations

import concurrent.futures
import os
import subprocess
import sys
import textwrap
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OrderingProblem, PrecedenceGraph
from repro.core.dynamic_programming import DynamicProgrammingOptimizer
from repro.core.optimizer import ALGORITHMS
from repro.core.evaluation import (
    disable_kernel_profiling,
    enable_kernel_profiling,
)
from repro.core.vector import (
    _VECTOR_DP_MAX_SIZE,
    AUTO_MIN_SIZE,
    BatchEvaluator,
    default_kernel,
    evaluation_kernel,
    numpy_available,
    resolve_kernel,
    set_default_kernel,
)
from repro.exceptions import KernelError
from repro.workloads import WorkloadSpec, generate_problem

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the vector kernel requires numpy"
)


# -- strategies ------------------------------------------------------------------


@st.composite
def problems(
    draw,
    min_size: int = 2,
    max_size: int = 7,
    max_selectivity: float = 2.0,
    allow_sink: bool = True,
    allow_precedence: bool = True,
):
    size = draw(st.integers(min_size, max_size))
    costs = draw(st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=size, max_size=size))
    selectivities = draw(
        st.lists(st.floats(0.05, max_selectivity, allow_nan=False), min_size=size, max_size=size)
    )
    flat = draw(
        st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=size * size, max_size=size * size)
    )
    rows = [[0.0 if i == j else flat[i * size + j] for j in range(size)] for i in range(size)]
    sink = None
    if allow_sink and draw(st.booleans()):
        sink = draw(st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=size, max_size=size))
    precedence = None
    if allow_precedence and size >= 2:
        # Random edges along a random topological order keep the DAG acyclic.
        topo = draw(st.permutations(range(size)))
        edges = []
        for a in range(size):
            for b in range(a + 1, size):
                if draw(st.booleans()) and draw(st.booleans()):
                    edges.append((topo[a], topo[b]))
        if edges:
            precedence = PrecedenceGraph(size, edges)
    return OrderingProblem.from_parameters(
        costs, selectivities, rows, precedence=precedence, sink_transfer=sink
    )


# -- optimizer parity ---------------------------------------------------------------


@needs_numpy
@settings(max_examples=30, deadline=None)
@given(problems(max_size=8))
def test_dynamic_programming_kernels_agree_including_dp_states(problem):
    scalar = DynamicProgrammingOptimizer(kernel="scalar").optimize(problem)
    vector = DynamicProgrammingOptimizer(kernel="vector").optimize(problem)
    assert vector.cost == scalar.cost
    assert vector.plan.order == scalar.plan.order
    assert vector.statistics.extra["dp_states"] == scalar.statistics.extra["dp_states"]


# -- DP kernel methods --------------------------------------------------------------


def _subset_products(problem: OrderingProblem) -> list[float]:
    """Subset selectivity products, built in the DP driver's multiplication order."""
    selectivities = problem.evaluator().selectivities
    products = [1.0] * (1 << problem.size)
    for mask in range(1, 1 << problem.size):
        lowest = (mask & -mask).bit_length() - 1
        products[mask] = products[mask ^ (1 << lowest)] * selectivities[lowest]
    return products


def _seeded_tables(kernel, problem: OrderingProblem):
    """The kernel's DP tables with the driver's seed layer written in."""
    predecessor_masks = problem.evaluator().predecessor_masks or (0,) * problem.size
    values, parents, products = kernel.dp_tables(_subset_products(problem))
    seeds = [index for index in range(problem.size) if predecessor_masks[index] == 0]
    for index in seeds:
        row = [float("inf")] * problem.size
        row[index] = 0.0
        values[1 << index] = row
        parents[1 << index] = [-1] * problem.size
    return values, parents, products, [1 << index for index in seeds]


def _row(table, mask: int, size: int, fill):
    """One table row as a plain list; an unallocated scalar row reads as ``fill``."""
    row = table[mask]
    if row is None:
        return [fill] * size
    return [value.item() if hasattr(value, "item") else value for value in row]


@needs_numpy
@settings(max_examples=60, deadline=None)
@given(problems(), st.data())
def test_transition_terms_bit_identical_to_scalar_transition(problem, data):
    evaluator = problem.evaluator()
    batch = BatchEvaluator(evaluator)
    lasts = data.draw(st.lists(st.integers(0, problem.size - 1), min_size=1, max_size=12))
    rates = data.draw(
        st.lists(
            st.floats(0.0, 50.0, allow_nan=False), min_size=len(lasts), max_size=len(lasts)
        )
    )
    terms = batch.transition_terms(rates, lasts)
    assert terms.shape == (len(lasts), problem.size)
    for row, rate, last in zip(terms.tolist(), rates, lasts):
        # The scalar relax loop's exact expression shape.
        expected = [
            rate * evaluator.costs[last]
            + (rate * evaluator.selectivities[last]) * evaluator.rows[last][nxt]
            for nxt in range(problem.size)
        ]
        assert row == expected


@needs_numpy
@settings(max_examples=60, deadline=None)
@given(problems(), st.data())
def test_completion_terms_bit_identical_to_scalar_kernel(problem, data):
    evaluator = problem.evaluator()
    rates = data.draw(
        st.lists(
            st.floats(0.0, 50.0, allow_nan=False), min_size=problem.size, max_size=problem.size
        )
    )
    vector = BatchEvaluator(evaluator).completion_terms(rates)
    assert vector.tolist() == evaluator.completion_terms(rates)


@needs_numpy
@settings(max_examples=60, deadline=None)
@given(problems(max_size=8))
def test_relax_layer_matches_scalar_layer_for_layer(problem):
    size = problem.size
    evaluator = problem.evaluator()
    scalar_values, scalar_parents, scalar_products, scalar_layer = _seeded_tables(
        evaluator, problem
    )
    batch = BatchEvaluator(evaluator)
    vector_values, vector_parents, vector_products, vector_layer = _seeded_tables(
        batch, problem
    )
    for _ in range(size - 1):
        if not scalar_layer:
            assert len(vector_layer) == 0
            break
        scalar_layer, scalar_reached, _ = evaluator.relax_layer(
            scalar_values, scalar_parents, scalar_products, scalar_layer
        )
        vector_layer, vector_reached, _ = batch.relax_layer(
            vector_values, vector_parents, vector_products, vector_layer
        )
        # Same next layer, same reached cells, same values bit for bit and
        # the same parent tie-breaks.
        assert [int(mask) for mask in vector_layer] == scalar_layer
        assert vector_reached == scalar_reached
        for mask in scalar_layer:
            assert _row(vector_values, mask, size, float("inf")) == _row(
                scalar_values, mask, size, float("inf")
            )
            assert _row(vector_parents, mask, size, -1) == _row(scalar_parents, mask, size, -1)


@needs_numpy
@settings(max_examples=60, deadline=None)
@given(problems(max_size=8))
def test_relax_layer_never_reaches_a_cell_that_breaks_precedence(problem):
    size = problem.size
    batch = BatchEvaluator(problem.evaluator())
    predecessor_masks = problem.evaluator().predecessor_masks or (0,) * size
    values, parents, products, layer = _seeded_tables(batch, problem)
    for _ in range(size - 1):
        if len(layer) == 0:
            break
        layer, _, _ = batch.relax_layer(values, parents, products, layer)
        for mask in layer.tolist():
            for last, value in enumerate(values[mask].tolist()):
                if value == float("inf"):
                    continue
                # ``last`` was appended after every one of its predecessors.
                assert mask >> last & 1
                assert predecessor_masks[last] & ~(mask ^ (1 << last)) == 0
                parent = int(parents[mask][last])
                assert parent >= 0 and mask >> parent & 1 and parent != last


@needs_numpy
def test_batch_evaluator_refuses_problems_past_the_dense_table_limit():
    size = _VECTOR_DP_MAX_SIZE + 1
    problem = generate_problem(WorkloadSpec(service_count=size), seed=1)
    with pytest.raises(KernelError, match="at most"):
        BatchEvaluator(problem.evaluator())


@needs_numpy
def test_evaluation_kernel_shares_the_scalar_evaluator_but_not_a_vector_kernel():
    problem = generate_problem(WorkloadSpec(service_count=AUTO_MIN_SIZE), seed=2)
    assert evaluation_kernel(problem, "scalar") is problem.evaluator()
    first = evaluation_kernel(problem, "vector")
    second = evaluation_kernel(problem, "vector")
    assert isinstance(first, BatchEvaluator) and isinstance(second, BatchEvaluator)
    # A vector kernel is built per DP run, so concurrent runs share no arrays.
    assert first is not second
    assert first.kernel_name == "vector"


# -- thread safety ------------------------------------------------------------------


@needs_numpy
@pytest.mark.parametrize("size", [10, 12])
def test_racing_vector_dynamic_programming_on_one_problem_stays_exact(size):
    """Portfolio members racing on threads over one problem must not share
    mutable kernel state: every vector DP plan and cost equals the scalar one."""
    problem = generate_problem(WorkloadSpec(service_count=size), seed=size)
    expected = DynamicProgrammingOptimizer(kernel="scalar").optimize(problem)
    errors: list[BaseException] = []
    answers = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the numpy call sequences
    try:
        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            for _ in range(8):
                start = threading.Barrier(4, timeout=30)

                def run():
                    start.wait()
                    result = DynamicProgrammingOptimizer(kernel="vector").optimize(problem)
                    return result.plan.order, result.cost, result.statistics.extra["dp_states"]

                for future in [pool.submit(run) for _ in range(4)]:
                    try:
                        answers.append(future.result(timeout=60))
                    except Exception as error:  # noqa: BLE001 - collected and asserted below
                        errors.append(error)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    reference = (
        expected.plan.order,
        expected.cost,
        expected.statistics.extra["dp_states"],
    )
    assert answers == [reference] * len(answers)


@pytest.mark.parametrize(
    "algorithm", ["beam_search", "hill_climbing", "branch_and_bound"]
)
def test_searches_other_than_the_dp_record_no_kernel(algorithm):
    problem = generate_problem(WorkloadSpec(service_count=AUTO_MIN_SIZE), seed=3)
    result = ALGORITHMS[algorithm](problem)
    assert "kernel" not in result.statistics.extra


@pytest.mark.parametrize("kernel", ["scalar", "auto"])
def test_dynamic_programming_records_its_resolved_kernel(kernel):
    problem = generate_problem(WorkloadSpec(service_count=AUTO_MIN_SIZE), seed=3)
    result = DynamicProgrammingOptimizer(kernel=kernel).optimize(problem)
    assert result.statistics.extra["kernel"] == resolve_kernel(kernel, problem.size)


# -- kernel selection ---------------------------------------------------------------


def test_resolve_kernel_rejects_unknown_names():
    with pytest.raises(KernelError, match="unknown evaluation kernel"):
        resolve_kernel("simd")
    with pytest.raises(KernelError):
        set_default_kernel("gpu")


def test_resolve_scalar_is_always_available():
    assert resolve_kernel("scalar") == "scalar"
    assert resolve_kernel("scalar", size=1000) == "scalar"


def test_set_default_kernel_exports_env_for_worker_processes():
    previous = os.environ.get("REPRO_KERNEL")
    try:
        assert set_default_kernel("scalar") == "scalar"
        assert os.environ["REPRO_KERNEL"] == "scalar"
        assert default_kernel() == "scalar"
        assert resolve_kernel(None, size=64) == "scalar"
        set_default_kernel(None)
        assert "REPRO_KERNEL" not in os.environ
        assert default_kernel() == "auto"
    finally:
        set_default_kernel(None)
        if previous is not None:
            os.environ["REPRO_KERNEL"] = previous


@needs_numpy
def test_auto_resolution_is_size_aware():
    assert resolve_kernel("auto", size=AUTO_MIN_SIZE - 1) == "scalar"
    assert resolve_kernel("auto", size=AUTO_MIN_SIZE) == "vector"
    assert resolve_kernel("auto", size=_VECTOR_DP_MAX_SIZE) == "vector"
    assert resolve_kernel("auto", size=_VECTOR_DP_MAX_SIZE + 1) == "scalar"
    assert resolve_kernel("auto") == "vector"


@needs_numpy
def test_explicit_vector_rejects_oversized_problems():
    with pytest.raises(KernelError, match="at most"):
        resolve_kernel("vector", size=_VECTOR_DP_MAX_SIZE + 1)


# -- profiling ----------------------------------------------------------------------


@needs_numpy
def test_batch_profiling_counts_dp_states_not_calls():
    problem = OrderingProblem.from_parameters(
        [1.0, 2.0, 3.0, 4.0],
        [0.5, 0.8, 1.2, 0.7],
        [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
    )
    disable_kernel_profiling()
    profile = enable_kernel_profiling()
    try:
        result = DynamicProgrammingOptimizer(kernel="vector").optimize(problem)
        # Every reached state below the full mask is relaxed once and the
        # full mask's lasts are completed once: dp_states in all, counted in
        # size calls (size - 1 layers and one completion) by whole batches.
        dp_states = result.statistics.extra["dp_states"]
        assert dp_states > problem.size
        assert profile.batch_evaluations == dp_states
        assert profile.counts()["batch"] == dp_states
        assert "batch_evaluations" in profile.snapshot()
    finally:
        disable_kernel_profiling()


# -- no-numpy fallback --------------------------------------------------------------


_NO_NUMPY_PROLOGUE = """
    import sys

    class _BlockNumpy:
        def find_module(self, name, path=None):  # pragma: no cover - py<3.12 shim
            return self if name.split(".")[0] == "numpy" else None

        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] == "numpy":
                raise ImportError("numpy is blocked for this test")
            return None

    sys.meta_path.insert(0, _BlockNumpy())
"""


def _run_without_numpy(body: str) -> None:
    _run_fresh(textwrap.dedent(_NO_NUMPY_PROLOGUE) + textwrap.dedent(body))


def _run_fresh(script: str) -> None:
    """Run ``script`` in a new interpreter on this checkout's sources."""
    env = dict(os.environ)
    env.pop("REPRO_KERNEL", None)
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    completed = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr


def test_without_numpy_auto_falls_back_to_scalar():
    _run_without_numpy(
        """
        from repro.core import vector
        assert vector.np is None
        assert not vector.numpy_available()
        assert vector.resolve_kernel() == "scalar"
        assert vector.resolve_kernel("auto", size=64) == "scalar"
        """
    )


def test_without_numpy_dynamic_programming_still_works_and_reports_scalar():
    _run_without_numpy(
        """
        from repro.core.dynamic_programming import DynamicProgrammingOptimizer
        from repro.core.vector import AUTO_MIN_SIZE
        from repro.workloads import hard_problem

        # In auto's vector range, so only the missing numpy keeps it scalar.
        result = DynamicProgrammingOptimizer().optimize(hard_problem(AUTO_MIN_SIZE))
        assert result.optimal
        assert result.statistics.extra["kernel"] == "scalar"
        """
    )


def test_without_numpy_explicit_vector_request_raises_kernel_error():
    _run_without_numpy(
        """
        from repro.core.dynamic_programming import DynamicProgrammingOptimizer
        from repro.core.vector import resolve_kernel
        from repro.exceptions import KernelError
        from repro.workloads import credit_card_screening

        try:
            resolve_kernel("vector")
        except KernelError as error:
            assert "numpy" in str(error)
        else:
            raise AssertionError("explicit vector request must fail without numpy")

        try:
            DynamicProgrammingOptimizer(kernel="vector").optimize(credit_card_screening())
        except KernelError:
            pass
        else:
            raise AssertionError("optimizer with kernel='vector' must fail without numpy")
        """
    )


@needs_numpy
def test_numpy_is_imported_only_when_a_kernel_resolves_to_vector():
    _run_fresh(
        textwrap.dedent(
            """
            import sys

            from repro.serving import PlanService, PlanServiceConfig
            from repro.workloads import credit_card_screening

            with PlanService(PlanServiceConfig(kernel="scalar", budget_seconds=None)) as service:
                service.submit(credit_card_screening())
            assert "numpy" not in sys.modules, "a scalar-only service loaded numpy"

            from repro.core.vector import resolve_kernel

            assert resolve_kernel("auto", size=16) == "vector"
            assert "numpy" in sys.modules
            """
        )
    )


def test_served_path_never_imports_numpy():
    """A default-config service answers cold misses at n = 8…24 on the
    scalar kernel alone: no served search reads a kernel."""
    _run_fresh(
        textwrap.dedent(
            """
            import sys

            from repro.serving import PlanService
            from repro.workloads import WorkloadSpec, generate_problem

            with PlanService() as service:
                for size in (8, 12, 16, 20, 24):
                    problem = generate_problem(WorkloadSpec(service_count=size), seed=size)
                    response = service.submit(problem)
                    assert not response.cache_hit
            assert "numpy" not in sys.modules, "the served path loaded numpy"
            """
        )
    )
