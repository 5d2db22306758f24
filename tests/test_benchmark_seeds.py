"""Full-size benchmark rounds, checked as a benchmark run checks them.

The benchmark's own self-tests run each workload at one seed and a tiny
size.  This runs one full-size ``simulate`` round (simulate, features and
baseline on a new 200-frame scene) and the benchmark's checks of it at
seeds 0-4, so a fault that shows at some seeds only fails here too.  As
in a benchmark run, a second round must write the first round's bytes.
One full-size ``grid`` round (the 5 x 5 robustness grid and SRP-PHAT per
SNR on the held-out frames of a 500-frame scene, with a model of the
paper's widths) is checked at seed 7.  Two full-size ``train`` rounds
(train and eval of each of the three networks at the paper's widths on a
500-frame scene) run at seed 3: the first is checked, and the second must
write the first's bytes.  ``benchmark/workloads.py`` is imported as it is.
"""

import os
import sys

import pytest

import avdoa
import avdoa.cli  # noqa: F401

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "benchmark"))
import workloads  # noqa: E402


@pytest.mark.parametrize("seed", range(5))
def test_simulate_round_passes_the_benchmark_checks(seed, tmp_path):
    workload = workloads.Simulate(seed, "full", workloads.checked_cli(avdoa))
    workload.build(str(tmp_path))
    workload.run_round(str(tmp_path / "round0"))
    workload.check(str(tmp_path / "round0"), avdoa)


def test_a_second_simulate_round_writes_the_same_bytes(tmp_path):
    workload = workloads.Simulate(0, "full", workloads.checked_cli(avdoa))
    workload.build(str(tmp_path))
    for k in range(2):
        workload.run_round(str(tmp_path / f"round{k}"))
    assert workload.fingerprint(str(tmp_path / "round1")) == \
        workload.fingerprint(str(tmp_path / "round0"))


def test_a_grid_round_passes_the_benchmark_checks(tmp_path):
    workload = workloads.Grid(7, "full", workloads.checked_cli(avdoa))
    workload.build(str(tmp_path))
    workload.run_round(str(tmp_path / "round0"))
    workload.check(str(tmp_path / "round0"), avdoa)


@pytest.fixture(scope="module")
def train_rounds(tmp_path_factory):
    root = tmp_path_factory.mktemp("train")
    workload = workloads.Train(3, "full", workloads.checked_cli(avdoa))
    workload.build(str(root))
    for k in range(2):
        (root / f"round{k}").mkdir()   # as a benchmark run makes each round's directory
        workload.run_round(str(root / f"round{k}"))
    return workload, root


def test_a_train_round_passes_the_benchmark_checks(train_rounds):
    workload, root = train_rounds
    workload.check(str(root / "round0"), avdoa)


def test_a_second_train_round_writes_the_same_bytes(train_rounds):
    workload, root = train_rounds
    assert workload.fingerprint(str(root / "round1")) == \
        workload.fingerprint(str(root / "round0"))
