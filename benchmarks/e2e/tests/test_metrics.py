import json

import pytest

import metrics as M
import run


def test_quantile_interpolates_between_order_statistics():
    values = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert M.quantile(values, 0.0) == 1.0
    assert M.quantile(values, 0.5) == 3.0
    assert M.quantile(values, 1.0) == 5.0
    assert M.quantile(values, 0.1) == pytest.approx(1.4)
    assert M.quantile([7.0], 0.1) == 7.0


def test_quantile_rejects_bad_input():
    with pytest.raises(ValueError):
        M.quantile([], 0.5)
    with pytest.raises(ValueError):
        M.quantile([1.0], 1.5)


def test_second_fastest_ignores_the_one_off_best_and_the_slow_tail():
    assert M.second_fastest([1.30, 0.90, 1.00, 2.50, 1.10, 1.05]) == 1.00
    assert M.second_fastest([1.5]) == 1.5


def test_benchmark_json_meets_the_driver_contract():
    document = M.benchmark_json()
    assert run.contract_problems(document) == []
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert set(M.EXACT_COUNTS) <= {layer.name for layer in M.PER_LAYER}
    assert set(run.STAGE_METRICS) <= {layer.name for layer in M.PER_LAYER}
    assert len(M.workload_names()) == 5 and len(M.END_TO_END) == 4


def test_benchmark_json_on_disk_is_the_generated_one():
    with open(f"{run.ROOT}/BENCHMARK.json", encoding="utf-8") as handle:
        assert json.load(handle) == M.benchmark_json()


def test_failed_ops_are_charged_the_slowest_wall():
    ops = [{"wall": 0.1}, {"wall": 0.5}, {"wall": 0.2}]
    assert run.penalised_walls(ops, ["raised", None, None]) == [0.5, 0.5, 0.2]
