import pytest

pytest.importorskip("repro")

from workloads import parse_cluster_stdout  # noqa: E402

STDOUT = """dataset: 4 objects, 2 variables (mutex)
hybrid (ε=0.1): 3 targets in 0.0123s (7 decision-tree nodes)
  P[Centre[1][0][0]] = 0.250000
  P[Centre[1][0][1]] ∈ [0.100000, 0.280000]
  P[Centre[1][1][0]] = 0.000000
"""


def test_parse_cluster_stdout_reads_header_and_bounds():
    header, bounds = parse_cluster_stdout(STDOUT)
    assert header == {"scheme": "hybrid", "epsilon": 0.1, "targets": 3,
                      "seconds": 0.0123, "tree_nodes": 7}
    assert bounds == {
        "Centre[1][0][0]": (0.25, 0.25),
        "Centre[1][0][1]": (0.1, 0.28),
        "Centre[1][1][0]": (0.0, 0.0),
    }


def test_parse_cluster_stdout_rejects_truncated_output():
    with pytest.raises(ValueError):
        parse_cluster_stdout("dataset: 4 objects\n")
    with pytest.raises(ValueError):
        parse_cluster_stdout("\n".join(STDOUT.splitlines()[:3]))
