import itertools
import random
from types import SimpleNamespace

from perfbench import loadgen, workloads


def _inputs(n: int = 600) -> workloads.Inputs:
    rows = [f'{{"x": {i}}}'.encode() for i in range(n)]
    return workloads.Inputs(model_dir=None, row_bytes=rows, expected=[0.5] * n)


def _mixed(seed: int, k: int = 0) -> list[tuple]:
    workload = workloads.MixedOpen(SimpleNamespace(seed=seed), _inputs(), k)
    names = [f"town_{i:03d}" for i in range(6)]
    workload.pairs = [(a, b) for a in names for b in names if a != b]
    workload.popular = [(workload.pairs[i], 0.3 + i / 10) for i in range(4)]
    workload.used_alphas = {alpha for _p, alpha in workload.popular}
    return [(r.method, r.path, r.body, r.kind, r.due) for r in workload.schedule(5.0)]


def test_open_loop_schedule_is_a_function_of_the_seed():
    first = _mixed(7)
    assert first == _mixed(7)
    assert first != _mixed(8)
    assert first != _mixed(7, k=1)
    dues = [due for *_rest, due in first]
    assert dues == sorted(dues) and 0.0 < dues[0] and dues[-1] < 5.0
    kinds = {kind for _m, _p, _b, kind, _d in first}
    assert kinds == {"single", "batch", "route-hot", "route-cold", "scrape"}


def test_closed_loop_row_picks_are_a_function_of_the_seed():
    def picks(cls, seed):
        workload = cls(SimpleNamespace(seed=seed), _inputs(), 0)
        return [r.body for r in itertools.islice(workload.requests, 50)]

    assert picks(workloads.ScoreOne, 3) == picks(workloads.ScoreOne, 3)
    assert picks(workloads.ScoreOne, 3) != picks(workloads.ScoreOne, 4)


def test_cold_walk_repeats_a_row_only_after_the_whole_pool():
    walk = workloads._walk(random.Random(1), list(range(50)))
    first_lap = list(itertools.islice(walk, 50))
    assert sorted(first_lap) == list(range(50))
    assert list(itertools.islice(walk, 50)) == first_lap


def test_poisson_offsets_are_reproducible():
    a = loadgen.poisson_offsets(random.Random(5), 30.0, 10.0)
    assert a == loadgen.poisson_offsets(random.Random(5), 30.0, 10.0)
    assert 200 < len(a) < 400
