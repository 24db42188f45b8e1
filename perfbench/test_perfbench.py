"""The benchmark's own tests: determinism, metric names and units, checks.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import CheckFailed, run_round  # noqa: E402

#: cluster-clock end-to-end metrics: exact functions of the seed
SIM_CLOCK = ("commit_latency_p50", "commit_latency_p99", "commits_per_unit",
             "msgs_per_commit")


def _run(*args: str, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _outcome(workload, seed):
    """A round's cluster-clock fingerprint, or the check that failed."""
    try:
        rnd = run_round(workload, seed)
    except CheckFailed as failure:
        return ("check failed", str(failure))
    assert len(rnd.latencies) >= 1000  # p99 has >= 10 samples beyond it
    return rnd.fingerprint()


@pytest.mark.parametrize("workload,seeds", [
    ("steady_writes", (1, 2)),
    ("observed_writes", (1, 2)),
    ("faulty_mix", (3, 5)),
])
def test_same_seed_repeats_cluster_clock_results(workload, seeds):
    """Two rounds of a seed agree exactly on every cluster-clock figure,
    or fail the same check; different seeds give different inputs."""
    results = []
    for seed in seeds:
        first = _outcome(workload, seed)
        assert _outcome(workload, seed) == first
        results.append(first)
    assert len(set(results)) == len(results)


def test_host_probe_leaves_cluster_clock_results_unchanged():
    """The probe samples through the timed phase and costs it nothing on
    the cluster clock; its own time is taken out of the round's."""
    from hostspeed import HostProbe

    plain = run_round("steady_writes", 1)
    probe = HostProbe()
    probed = run_round("steady_writes", 1, probe=probe)
    assert probed.fingerprint() == plain.fingerprint()
    assert len(probe.rates) >= 3  # both ends and at least one tick
    assert probe.wall_s > 0 and probed.speed == probe.speed > 0
    assert plain.speed == 1.0


def test_end_to_end_run_prints_every_metric_with_its_unit():
    proc = _run("--workload", "steady_writes", "--seed", "2",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name]
        assert metric["value"] > 0, name
    again = json.loads(_run("--workload", "steady_writes", "--seed", "2",
                            "--seconds", "1", "--trace", "0")
                       .stdout.strip().splitlines()[-1])
    for name in SIM_CLOCK:
        assert again["metrics"][name] == result["metrics"][name]


def test_traced_run_prints_every_layer_metric(tmp_path):
    spans = tmp_path / "spans.json.gz"
    proc = _run("--workload", "steady_writes", "--seed", "1",
                "--seconds", "1", "--trace", "1", "--spans", str(spans))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.PER_LAYER[name][0]
    assert 1.0 - run.UNATTRIBUTED_MAX <= metrics["trace.self_sum_share"] \
        <= 1.0
    # steady_writes attaches no obs layer
    for layer in ("sampler", "flight", "postmortem", "introspect", "slo"):
        assert metrics[f"obs.{layer}_share"] == 0.0
    assert spans.stat().st_size > 0


def test_attribution_check_fails_on_unaccounted_time():
    run.check_attribution(0.99, 0.99, 1.0)
    with pytest.raises(CheckFailed):  # a child's time counted twice
        run.check_attribution(0.97, 0.99, 1.0)
    with pytest.raises(CheckFailed):  # half the phase under no span
        run.check_attribution(0.5, 0.5, 1.0)
    with pytest.raises(CheckFailed):  # spans outlast the phase
        run.check_attribution(1.1, 1.1, 1.0)


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == run.PER_LAYER
    from workloads import WORKLOADS
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "steady_writes", "--seed", "1", "--seconds",
                "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_faulty_mix_reads_take_the_read_only_vote_path():
    """A read's account servers only read, so they vote read-only."""
    from layers import cluster_counts

    counts = cluster_counts(run_round("faulty_mix", 5).cluster)
    for kind in ("read_only", "commute", "one_phase", "piggyback"):
        assert counts[f"path.{kind}"] > 0, kind


def _faulty_mix_fails(seed, part, text):
    """Re-raise the round's failed check if it is the one named by ``text``."""
    try:
        run_round("faulty_mix", seed, part)
    except CheckFailed as failure:
        if text in str(failure):
            raise
        pytest.fail(f"another check failed first: {failure}")


@pytest.mark.xfail(strict=True, raises=CheckFailed, reason=(
    "lost update under faults: a commit decision applied a second time "
    "(redelivered txn_commit vs in-doubt resolution) refreshes the live "
    "object from stable state and discards a later action's uncommitted "
    "update; account conservation breaks at this seed"))
def test_faulty_mix_conserves_accounts_at_seed_6():
    _faulty_mix_fails(6, 0, "account total")


@pytest.mark.xfail(strict=True, raises=CheckFailed, reason=(
    "read-only voter lost to a restart: the reader's read-only prepare is "
    "refused on the bumped epoch, but read-only prepares never gate the "
    "decision, so the coordinator commits and the auditor reports "
    "commit-after-rollback"))
def test_faulty_mix_auditor_silent_at_seed_1_part_1():
    _faulty_mix_fails(1, 1, "commit-after-rollback")
