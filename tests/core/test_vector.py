"""Property-based tests for the vectorized batch-evaluation kernel.

The vector kernel (:mod:`repro.core.vector`) promises *bit-identical*
agreement with the scalar kernel — and hence with the from-scratch cost
model: every cost assertion below uses ``==``, never approx.  Problems are
drawn with and without sink transfers, with and without precedence
constraints (so infeasible-candidate masking is exercised), and with
proliferative (sigma > 1) services.

numpy is optional: the numpy-dependent tests skip cleanly when it is absent,
and the fallback tests run the library in a subprocess with the numpy import
*blocked*, proving the scalar path stays fully functional without it.
"""

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
from repro.core.beam_search import BeamSearchOptimizer
from repro.core.branch_and_bound import (
    BranchAndBoundOptimizer,
    BranchAndBoundOptions,
    SuccessorOrder,
)
from repro.core.cost_model import bottleneck_cost
from repro.core.dynamic_programming import DynamicProgrammingOptimizer
from repro.core.evaluation import (
    disable_kernel_profiling,
    enable_kernel_profiling,
)
from repro.core.local_search import HillClimbingOptimizer
from repro.core.vector import (
    AUTO_MIN_SIZE,
    MAX_VECTOR_SIZE,
    batch_evaluator,
    default_kernel,
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


@st.composite
def problem_and_orders(draw, count: int = 8, **kwargs):
    problem = draw(problems(**kwargs))
    orders = [
        tuple(draw(st.permutations(range(problem.size)))) for _ in range(count)
    ]
    return problem, orders


def _feasible_scalar(problem: OrderingProblem, order) -> bool:
    masks = problem.evaluator().predecessor_masks
    if masks is None:
        return True
    placed = 0
    for service in order:
        if masks[service] & ~placed:
            return False
        placed |= 1 << service
    return True


# -- batched complete-plan scoring -------------------------------------------------


@needs_numpy
@settings(max_examples=100, deadline=None)
@given(problem_and_orders())
def test_score_orders_bit_identical_to_oracle(case):
    problem, orders = case
    evaluator = problem.evaluator()
    batch = batch_evaluator(evaluator)
    scores = batch.score_orders(orders)
    for order, score in zip(orders, scores):
        oracle = bottleneck_cost(
            problem.costs, problem.selectivities, problem.transfer, order, problem.sink_transfer
        )
        assert score == oracle
        assert score == evaluator.cost(order)


@needs_numpy
@settings(max_examples=100, deadline=None)
@given(problem_and_orders())
def test_feasibility_mask_matches_scalar_precedence_walk(case):
    problem, orders = case
    batch = batch_evaluator(problem.evaluator())
    mask = batch.feasible_orders(orders)
    for order, flag in zip(orders, mask):
        assert bool(flag) == _feasible_scalar(problem, order)


# -- beam fronts --------------------------------------------------------------------


@needs_numpy
@settings(max_examples=80, deadline=None)
@given(problems())
def test_score_front_matches_prefix_extension_bit_for_bit(problem):
    evaluator = problem.evaluator()
    batch = batch_evaluator(evaluator)
    front = [evaluator.root()]
    for level in range(problem.size):
        final = level + 1 == problem.size
        parents, extensions, epsilons = batch.score_front(front, final)
        reference = [
            (parent_index, successor, state.extend(successor).epsilon)
            for parent_index, state in enumerate(front)
            for successor in state.allowed_extensions()
        ]
        produced = list(zip(parents.tolist(), extensions.tolist(), epsilons.tolist()))
        # Same feasible children, in the same generation order, same epsilons.
        assert [(p, e) for p, e, _ in produced] == [(p, e) for p, e, _ in reference]
        for (_, _, vector_eps), (_, _, scalar_eps) in zip(produced, reference):
            assert vector_eps == scalar_eps
        front = [front[p].extend(e) for p, e, _ in produced[:4]]


# -- neighbourhoods -----------------------------------------------------------------


@needs_numpy
@settings(max_examples=80, deadline=None)
@given(problems())
def test_best_neighbor_matches_scalar_steepest_descent_step(problem):
    evaluator = problem.evaluator()
    batch = batch_evaluator(evaluator)
    state = evaluator.root()
    while not state.is_complete:
        state = state.extend(state.allowed_extensions()[0])
    base = state.order
    neighborhood = evaluator.neighborhood(base)
    size = problem.size

    best_cost = neighborhood.cost
    best_order = None
    evaluated = 0
    for i in range(size):
        for j in range(i + 1, size):
            if not neighborhood.swap_feasible(i, j):
                continue
            evaluated += 1
            cost = neighborhood.swap_cost(i, j, best_cost)
            if cost < best_cost:
                best_cost = cost
                best_order = neighborhood.swapped(i, j)
    for i in range(size):
        for j in range(size):
            if i == j or not neighborhood.relocate_feasible(i, j):
                continue
            evaluated += 1
            cost = neighborhood.relocate_cost(i, j, best_cost)
            if cost < best_cost:
                best_cost = cost
                best_order = neighborhood.relocated(i, j)

    vector_order, vector_cost, vector_evaluated = batch.best_neighbor(base, neighborhood.cost)
    assert vector_evaluated == evaluated
    if best_order is None:
        assert vector_order is None
        assert vector_cost == neighborhood.cost
    else:
        assert vector_order == best_order
        assert vector_cost == best_cost


# -- optimizer parity ---------------------------------------------------------------


@needs_numpy
@settings(max_examples=40, deadline=None)
@given(problems(), st.sampled_from([1, 3, 16]), st.booleans())
def test_beam_search_kernels_agree_bit_for_bit(problem, width, use_residual):
    scalar = BeamSearchOptimizer(
        width=width, use_residual_bound=use_residual, kernel="scalar"
    ).optimize(problem)
    vector = BeamSearchOptimizer(
        width=width, use_residual_bound=use_residual, kernel="vector"
    ).optimize(problem)
    assert vector.cost == scalar.cost
    assert vector.plan.order == scalar.plan.order
    assert vector.optimal == scalar.optimal
    assert vector.statistics.nodes_expanded == scalar.statistics.nodes_expanded
    assert scalar.statistics.extra["kernel"] == "scalar"
    assert vector.statistics.extra["kernel"] == "vector"


@needs_numpy
@settings(max_examples=40, deadline=None)
@given(problems())
def test_hill_climbing_kernels_walk_identical_trajectories(problem):
    scalar = HillClimbingOptimizer(kernel="scalar").optimize(problem)
    vector = HillClimbingOptimizer(kernel="vector").optimize(problem)
    assert vector.cost == scalar.cost
    assert vector.plan.order == scalar.plan.order
    assert vector.statistics.plans_evaluated == scalar.statistics.plans_evaluated
    assert vector.statistics.incumbent_updates == scalar.statistics.incumbent_updates


@needs_numpy
@settings(max_examples=30, deadline=None)
@given(problems(max_size=8))
def test_dynamic_programming_kernels_agree_including_dp_states(problem):
    scalar = DynamicProgrammingOptimizer(kernel="scalar").optimize(problem)
    vector = DynamicProgrammingOptimizer(kernel="vector").optimize(problem)
    assert vector.cost == scalar.cost
    assert vector.plan.order == scalar.plan.order
    assert vector.statistics.extra["dp_states"] == scalar.statistics.extra["dp_states"]


# -- thread safety ------------------------------------------------------------------


@needs_numpy
@pytest.mark.parametrize("size", [12, 16])
def test_racing_vector_optimizers_on_one_problem_stay_exact(size):
    """Portfolio members racing on threads over one problem must not share
    mutable kernel state: every vector beam plan equals the scalar one."""
    problem = generate_problem(WorkloadSpec(service_count=size), seed=size)
    expected = BeamSearchOptimizer(kernel="scalar").optimize(problem).plan.order
    exact_options = BranchAndBoundOptions(
        successor_order=SuccessorOrder.CHEAPEST_TERM, use_lemma3=False, kernel="vector"
    )
    errors: list[BaseException] = []
    beam_orders = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the numpy call sequences
    try:
        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            for _ in range(20):
                start = threading.Barrier(4, timeout=30)

                def beam():
                    start.wait()
                    return BeamSearchOptimizer(kernel="vector").optimize(problem).plan.order

                def exact():
                    start.wait()
                    return BranchAndBoundOptimizer(exact_options).optimize(problem).plan.order

                futures = [pool.submit(beam) for _ in range(3)] + [pool.submit(exact)]
                for index, future in enumerate(futures):
                    try:
                        order = future.result(timeout=60)
                    except Exception as error:  # noqa: BLE001 - collected and asserted below
                        errors.append(error)
                        continue
                    if index < 3:
                        beam_orders.append(order)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert beam_orders == [expected] * len(beam_orders)


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
    assert resolve_kernel("auto", size=MAX_VECTOR_SIZE + 1) == "scalar"
    assert resolve_kernel("auto") == "vector"


@needs_numpy
def test_explicit_vector_rejects_oversized_problems():
    with pytest.raises(KernelError, match="at most"):
        resolve_kernel("vector", size=MAX_VECTOR_SIZE + 1)


# -- profiling ----------------------------------------------------------------------


@needs_numpy
def test_batch_profiling_counts_candidates_not_calls():
    problem = OrderingProblem.from_parameters(
        [1.0, 2.0, 3.0, 4.0],
        [0.5, 0.8, 1.2, 0.7],
        [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
    )
    batch = batch_evaluator(problem.evaluator())
    disable_kernel_profiling()
    profile = enable_kernel_profiling()
    try:
        orders = [(0, 1, 2, 3), (1, 0, 2, 3), (2, 1, 0, 3)]
        batch.score_orders(orders)
        assert profile.batch_evaluations == len(orders)
        assert profile.counts()["batch"] == len(orders)
        assert "batch_evaluations" in profile.snapshot()
        before = profile.batch_evaluations
        batch.best_neighbor((0, 1, 2, 3), float("inf"))
        # One neighbourhood = one feasibility batch + one scoring batch; the
        # counter advanced by whole batch sizes, not by ones.
        assert profile.batch_evaluations - before >= 12
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


def test_without_numpy_optimizers_still_work_and_report_scalar():
    _run_without_numpy(
        """
        from repro.core.beam_search import BeamSearchOptimizer
        from repro.core.dynamic_programming import DynamicProgrammingOptimizer
        from repro.core.local_search import HillClimbingOptimizer
        from repro.workloads import credit_card_screening

        problem = credit_card_screening()
        for optimizer in (
            BeamSearchOptimizer(kernel=None),
            HillClimbingOptimizer(),
            DynamicProgrammingOptimizer(),
        ):
            result = optimizer.optimize(problem)
            assert result.statistics.extra["kernel"] == "scalar"
        """
    )


def test_without_numpy_explicit_vector_request_raises_kernel_error():
    _run_without_numpy(
        """
        from repro.core.local_search import HillClimbingOptimizer
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
            HillClimbingOptimizer(kernel="vector").optimize(credit_card_screening())
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
                assert service.stats()["kernel"]["numpy"] is True
            assert "numpy" not in sys.modules, "a scalar-only service loaded numpy"

            from repro.core.vector import resolve_kernel

            assert resolve_kernel("auto", size=24) == "vector"
            assert "numpy" in sys.modules
            """
        )
    )
