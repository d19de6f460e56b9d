"""h-LB+UB measures only open vertices in ImproveLB.

A vertex is *settled* once a higher partition has fixed its core index and
*open* otherwise.  Each partition's ImproveLB pass BFSes only the open
candidates, keeps the settled ones as support, and a partition whose cleaned
set holds no open vertex is skipped.  These tests pin the three claims the
change rests on: no pass targets a settled handle, the restricted pass
returns exactly what the full pass returns, and the decomposition stays
exact for every partition size and both upper bounds.
"""

import pytest

from repro.core import h_bz, h_lb_ub
from repro.core import hlbub
from repro.core.backends import CSREngine, DictEngine
from repro.core.bounds import (
    engine_improve_lb,
    engine_lb1,
    engine_lb2,
    engine_upper_bound,
)
from repro.core.hlbub import build_partitions
from repro.graph.generators import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    powerlaw_cluster_graph,
    relaxed_caveman_graph,
    road_network_graph,
    watts_strogatz_graph,
)
from repro.instrumentation import Counters
from repro.runtime import ExecutionContext

FAMILIES = {
    "erdos_renyi": lambda: erdos_renyi_graph(40, 0.1, seed=3),
    "barabasi_albert": lambda: barabasi_albert_graph(60, 3, seed=1),
    "powerlaw_cluster": lambda: powerlaw_cluster_graph(60, 2, 0.3, seed=2),
    "relaxed_caveman": lambda: relaxed_caveman_graph(6, 6, 0.15, seed=4),
    "watts_strogatz": lambda: watts_strogatz_graph(50, 4, 0.2, seed=5),
    "road_network": lambda: road_network_graph(6, 7, seed=6),
}

ENGINES = {"dict": DictEngine, "csr": CSREngine}


@pytest.fixture(params=sorted(FAMILIES))
def graph(request):
    return FAMILIES[request.param]()


class TestImproveLBTargets:
    @pytest.mark.parametrize("backend", sorted(ENGINES))
    def test_no_pass_targets_a_settled_handle(self, monkeypatch, backend):
        # Three of this graph's partitions clean down to settled vertices.
        graph = barabasi_albert_graph(150, 3, seed=2)
        expected = h_bz(graph, 2).core_index
        ctx = ExecutionContext(graph, backend=backend)
        engine_class = type(ctx.engine)
        core_maps = []
        passes = []
        peeled = []

        make_core_map = ExecutionContext.make_core_map

        def recording_core_map(self):
            core_maps.append(make_core_map(self))
            return core_maps[-1]

        original_bulk = engine_class.bulk_h_degrees

        def spy_bulk(self, h, targets=None, alive=None, **kwargs):
            targets = list(targets)
            core_index = core_maps[-1] if core_maps else {}
            passes.append((len(targets),
                           [v for v in targets if v in core_index]))
            return original_bulk(self, h, targets=targets, alive=alive,
                                 **kwargs)

        original_decomp = hlbub.core_decomp

        def spy_decomp(engine, h, kmin, kmax, state, alive, core_index,
                       **kwargs):
            peeled.append(any(v not in core_index for v in alive))
            return original_decomp(engine, h, kmin=kmin, kmax=kmax,
                                   state=state, alive=alive,
                                   core_index=core_index, **kwargs)

        monkeypatch.setattr(ExecutionContext, "make_core_map",
                            recording_core_map)
        monkeypatch.setattr(engine_class, "bulk_h_degrees", spy_bulk)
        monkeypatch.setattr(hlbub, "core_decomp", spy_decomp)
        with ctx:
            result = h_lb_ub(graph, 2, context=ctx)

        assert result.core_index == expected
        # The initial full pass, then one pass per ImproveLB call, at
        # least one of them after a higher partition settled something.
        assert passes[0][0] == graph.num_vertices
        assert len(passes) > 2
        assert len(core_maps) == 1
        assert [settled for _, settled in passes[1:]] == [[]] * (len(passes) - 1)
        # Every peeled partition had an open vertex to assign; the dead
        # ones were skipped.
        assert peeled and all(peeled)
        assert len(peeled) < len(passes) - 1


class TestImproveLBParity:
    """The settled/open pass equals the full pass, partition by partition."""

    @pytest.mark.parametrize("h", [2, 3])
    @pytest.mark.parametrize("backend", sorted(ENGINES))
    def test_same_cleaned_set_and_minimum(self, graph, h, backend):
        cores = h_bz(graph, h).core_index
        engine = ENGINES[backend](graph)
        core = {engine.handle_of(v): c for v, c in cores.items()}
        ub = engine_upper_bound(engine, h)
        lb2 = engine_lb2(engine, h, lb1=engine_lb1(engine, h))
        handles = list(engine.nodes())
        compared = 0
        for kmin, kmax in build_partitions(ub, min(lb2.values()), 1):
            candidate = [v for v in handles if ub[v] >= kmin]
            settled = {v for v in candidate if core[v] > kmax}
            full_counters, open_counters = Counters(), Counters()
            full, full_min = engine_improve_lb(engine, h, candidate, kmin,
                                               counters=full_counters)
            cleaned, open_min = engine_improve_lb(engine, h, candidate, kmin,
                                                  counters=open_counters,
                                                  settled=settled)
            assert set(cleaned) == set(full)
            assert settled <= set(cleaned)
            assert (open_counters.hdegree_computations
                    == len(candidate) - len(settled))
            if len(settled) < len(candidate):
                assert open_min == full_min
                compared += bool(settled)
        # Some partitions mixed settled and open candidates.
        assert compared > 0

    def test_all_settled_runs_no_bfs(self):
        graph = erdos_renyi_graph(30, 0.2, seed=7)
        engine = CSREngine(graph)
        counters = Counters()
        handles = list(engine.nodes())
        cleaned, min_degree = engine_improve_lb(engine, 2, handles, 1,
                                                counters=counters,
                                                settled=set(handles))
        assert set(cleaned) == set(handles)
        assert min_degree == 0
        assert counters.bfs_calls == 0


class TestExactAcrossBounds:
    """Exactness rests on UB being an upper bound: check both bounds."""

    @pytest.mark.parametrize("h", [2, 3])
    @pytest.mark.parametrize("backend", sorted(ENGINES))
    @pytest.mark.parametrize("variant", [
        {"partition_size": 1},
        {"partition_size": 2},
        {"partition_size": 5},
        {"use_hdegree_as_upper_bound": True},
        {"use_hdegree_as_upper_bound": True, "partition_size": 2},
    ], ids=["S1", "S2", "S5", "hdegree-S1", "hdegree-S2"])
    def test_matches_hbz(self, graph, h, backend, variant):
        expected = h_bz(graph, h).core_index
        assert h_lb_ub(graph, h, backend=backend, **variant).core_index == expected
