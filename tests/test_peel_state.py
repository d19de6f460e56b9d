"""Property tests: the array and dict peel states are observationally equal.

The two :class:`~repro.runtime.peel.PeelState` layouts are not merely "both
correct": they execute the same operation sequence, pop the same vertex from
every bucket (most-recently-inserted first), and therefore produce identical
core numbers, identical removal orders and identical instrumentation totals.
The deterministic battery drives every generator family through h-LB, h-BZ
and h-LB+UB on the CSR engine under both layouts (the engine picks arrays;
the dict runs swap the state factory with :func:`helpers.force_dict_peel`);
a hypothesis sweep mixes backends and executors through the execution
context against the dict reference.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import CSREngine, core_decomposition, h_bz, h_lb, h_lb_ub
from repro.dynamic.repeel import repeel_region
from repro.graph import generators as gen
from repro.instrumentation import Counters
from repro.runtime import (
    ArrayCoreMap,
    ArrayPeelState,
    DictPeelState,
    ExecutionContext,
    make_peel_state,
)

from helpers import force_dict_peel

#: One small representative per generator family (every family in
#: repro.graph.generators is covered — the same battery the dynamic
#: subsystem uses).
FAMILIES = {
    "complete": lambda: gen.complete_graph(7),
    "cycle": lambda: gen.cycle_graph(12),
    "path": lambda: gen.path_graph(12),
    "star": lambda: gen.star_graph(8),
    "grid": lambda: gen.grid_graph(4, 4),
    "erdos_renyi": lambda: gen.erdos_renyi_graph(16, 0.18, seed=3),
    "barabasi_albert": lambda: gen.barabasi_albert_graph(16, 2, seed=3),
    "watts_strogatz": lambda: gen.watts_strogatz_graph(14, 4, 0.2, seed=3),
    "powerlaw_cluster": lambda: gen.powerlaw_cluster_graph(16, 2, 0.3, seed=3),
    "caveman": lambda: gen.caveman_graph(3, 4),
    "relaxed_caveman": lambda: gen.relaxed_caveman_graph(3, 4, 0.2, seed=3),
    "planted_partition": lambda: gen.planted_partition_graph(3, 5, 0.6, 0.1,
                                                             seed=3),
    "random_tree": lambda: gen.random_tree(14, seed=3),
    "road_network": lambda: gen.road_network_graph(4, 4, seed=3),
}


def run_with_peel(algorithm, graph, h, peel):
    """Run ``algorithm`` on CSR under ``peel``; return (cores, order, counts)."""
    counters = Counters()
    with pytest.MonkeyPatch.context() as monkeypatch:
        if peel == "dict":
            force_dict_peel(monkeypatch)
        with ExecutionContext(graph, backend="csr",
                              counters=counters) as context:
            result = algorithm(graph, h, context=context)
    return result.core_index, result.removal_order, counters.as_dict()


@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("family", sorted(FAMILIES), ids=sorted(FAMILIES))
def test_layouts_identical_on_h_lb(family, h):
    """h-LB: identical cores, removal orders and counter totals."""
    graph = FAMILIES[family]()
    array_run = run_with_peel(h_lb, graph, h, "array")
    dict_run = run_with_peel(h_lb, graph, h, "dict")
    assert array_run[0] == dict_run[0], "core numbers diverged"
    assert array_run[1] == dict_run[1], "removal orders diverged"
    assert array_run[2] == dict_run[2], "counter totals diverged"


@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("family", sorted(FAMILIES), ids=sorted(FAMILIES))
def test_layouts_identical_on_h_bz(family, h):
    graph = FAMILIES[family]()
    array_run = run_with_peel(h_bz, graph, h, "array")
    dict_run = run_with_peel(h_bz, graph, h, "dict")
    assert array_run == dict_run


@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("family", sorted(FAMILIES), ids=sorted(FAMILIES))
def test_layouts_identical_on_h_lb_ub(family, h):
    """h-LB+UB (incl. the UB peeling and per-partition kernels)."""
    graph = FAMILIES[family]()
    array_run = run_with_peel(h_lb_ub, graph, h, "array")
    dict_run = run_with_peel(h_lb_ub, graph, h, "dict")
    assert array_run[0] == dict_run[0]
    assert array_run[2] == dict_run[2]


@pytest.mark.parametrize("family", sorted(FAMILIES), ids=sorted(FAMILIES))
def test_layouts_match_dict_backend_reference(family):
    """Both layouts agree with the dict-engine reference decomposition."""
    graph = FAMILIES[family]()
    reference = h_lb(graph, 2, backend="dict").core_index
    for peel in ("array", "dict"):
        cores, _, _ = run_with_peel(h_lb, graph, 2, peel)
        assert cores == reference


@pytest.mark.parametrize("peel", ["array", "dict"])
def test_repeel_region_layouts_agree(peel, monkeypatch):
    """Both sides of the re-peel size rule agree with the batch peel.

    ``repeel_region`` takes the dict state when ``region ∪ shell`` is under
    a quarter of the graph, the engine's array state otherwise: the whole
    graph exercises the array side, one caveman clique plus its frozen
    shell the dict side.
    """
    graph = gen.relaxed_caveman_graph(16, 4, 0.1, seed=1)
    expected = core_decomposition(graph, 2, algorithm="h-LB").core_index
    engine = CSREngine(graph)
    if peel == "array":
        region = list(engine.nodes())
        shell_levels = {}
    else:
        region = [engine.handle_of(v) for v in range(4)]
        shell_levels = {
            u: expected[engine.label(u)]
            for v in region for u in engine.h_neighborhood(v, 2)
            if u not in region
        }
        assert (len(region) + len(shell_levels)) * 4 < engine.num_nodes
    states = []
    for layout in (ArrayPeelState, DictPeelState):
        monkeypatch.setattr(layout, "fill_exact",
                            _recording(layout.fill_exact, states))
    new_core = repeel_region(engine, 2, region, shell_levels)
    assert [type(state) for state in states] == \
        [ArrayPeelState if peel == "array" else DictPeelState]
    assert engine.to_labels(new_core) == {
        engine.label(v): expected[engine.label(v)] for v in region}


def _recording(method, calls):
    """Wrap a peel-state method so each call appends its state to ``calls``."""
    def wrapper(self, *args, **kwargs):
        calls.append(self)
        return method(self, *args, **kwargs)
    return wrapper


class TestPeelStateUnits:
    """Direct op-level equivalence of the two layouts."""

    def states(self, n=8):
        return ArrayPeelState(n), DictPeelState()

    def test_pop_is_lifo_in_both(self):
        array_state, dict_state = self.states()
        for state in (array_state, dict_state):
            state.insert(1, 0)
            state.insert(2, 0)
            state.insert(3, 0)
            assert state.pop(0) == 3
            assert state.pop(0) == 2
            assert state.pop(0) == 1
            assert state.pop(0) is None

    def test_move_refreshes_recency_in_both(self):
        for state in self.states():
            state.insert(1, 0)
            state.insert(2, 0)
            state.move_to(1, 1)
            state.move_to(1, 0)
            # 1 moved back most recently, so it pops first.
            assert state.pop(0) == 1
            assert state.pop(0) == 2

    def test_move_to_same_key_is_a_counted_noop(self):
        counters_pair = (Counters(), Counters())
        states = (ArrayPeelState(4, counters_pair[0]),
                  DictPeelState(counters_pair[1]))
        for state, counters in zip(states, counters_pair):
            state.insert(0, 1)
            state.move_to(0, 1)
            assert counters.bucket_moves == 0
            state.move_to(0, 2)
            assert counters.bucket_moves == 1

    def test_membership_degree_and_lb_flags(self):
        for state in self.states():
            state.insert(3, 2, lb=True)
            assert 3 in state
            assert state.is_lb(3)
            assert state.key_of(3) == 2
            state.set_lb(3, False)
            state.set_degree(3, 5)
            assert state.degree_of(3) == 5
            assert state.decrement(3) == 4
            assert state.pop(2) == 3
            assert 3 not in state

    def test_duplicate_insert_and_bad_keys_rejected(self):
        for state in self.states():
            state.insert(0, 1)
            with pytest.raises(ValueError):
                state.insert(0, 2)
            with pytest.raises(ValueError):
                state.insert(1, -1)
            with pytest.raises(KeyError):
                state.move_to(2, 0)

    def test_fill_matches_individual_inserts(self):
        filled_array, filled_dict = self.states()
        filled_array.fill_exact([(0, 2), (1, 2), (2, 3)])
        filled_dict.fill_exact([(0, 2), (1, 2), (2, 3)])
        manual = ArrayPeelState(8)
        for v, d in [(0, 2), (1, 2), (2, 3)]:
            manual.insert(v, d)
            manual.set_degree(v, d)
        for state in (filled_array, filled_dict, manual):
            assert len(state) == 3
            assert state.degree_of(2) == 3
            assert state.pop(2) == 1
            assert state.pop(2) == 0
        empty_a, empty_d = self.states()
        empty_a.fill_lb([(4, 0)])
        empty_d.fill_lb([(4, 0)])
        assert empty_a.is_lb(4) and empty_d.is_lb(4)

    def test_array_state_grows_bucket_space_on_demand(self):
        state = ArrayPeelState(4)
        state.insert(0, 100)  # far beyond the pre-sized n + 1 heads
        assert state.key_of(0) == 100
        assert state.pop(100) == 0


class TestArrayCoreMap:
    def test_mapping_protocol(self):
        core_map = ArrayCoreMap(5)
        assert 2 not in core_map
        assert core_map.get(2) is None
        core_map[2] = 7
        assert core_map[2] == 7
        assert core_map.setdefault(2, 0) == 7
        assert core_map.setdefault(3, 4) == 4
        assert sorted(core_map.items()) == [(2, 7), (3, 4)]
        assert sorted(core_map.keys()) == [2, 3]
        assert sorted(core_map.values()) == [4, 7]
        assert core_map.to_dict() == {2: 7, 3: 4}
        assert len(core_map) == 2
        with pytest.raises(KeyError):
            core_map[0]

    def test_zero_core_is_distinct_from_unset(self):
        core_map = ArrayCoreMap(3)
        core_map[1] = 0
        assert 1 in core_map
        assert core_map[1] == 0
        assert core_map.get(0, -5) == -5


def test_make_peel_state_auto_selection():
    graph = gen.cycle_graph(6)
    engine = CSREngine(graph)
    assert isinstance(make_peel_state(engine), ArrayPeelState)
    from repro.core import DictEngine
    assert isinstance(make_peel_state(DictEngine(graph)), DictPeelState)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    num_vertices=st.integers(min_value=2, max_value=18),
    edge_probability=st.floats(min_value=0.05, max_value=0.6),
    seed=st.integers(min_value=0, max_value=10_000),
    h=st.integers(min_value=1, max_value=3),
    backend=st.sampled_from(["dict", "csr"]),
    executor=st.sampled_from(["serial", "thread"]),
    workers=st.integers(min_value=1, max_value=3),
)
def test_hypothesis_backend_executor_sweep(num_vertices, edge_probability,
                                           seed, h, backend, executor,
                                           workers):
    """Random graphs through the context: every mix equals the reference."""
    graph = gen.erdos_renyi_graph(num_vertices, edge_probability, seed=seed)
    reference = h_lb(graph, h, backend="dict").core_index
    with ExecutionContext(graph, backend=backend, executor=executor,
                          num_workers=workers) as context:
        for algorithm in (h_lb, h_lb_ub, h_bz):
            assert algorithm(graph, h, context=context).core_index == \
                reference, (algorithm, backend, executor)
