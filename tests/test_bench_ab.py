import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_ab.py"
_SPEC = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_ab)


def test_order_alternates_which_side_runs_first():
    order = bench_ab._order(4)
    assert order == ["parent:1", "change:1", "change:2", "parent:2",
                     "parent:3", "change:3", "change:4", "parent:4"]
    # each pair runs once per side, back to back
    for i in range(4):
        assert {slot.split(":")[0] for slot in order[2 * i: 2 * i + 2]} == {"parent", "change"}
        assert {slot.split(":")[1] for slot in order[2 * i: 2 * i + 2]} == {str(i + 1)}


def test_quartiles_are_inclusive():
    assert bench_ab._quartiles([7.0]) == [7.0, 7.0]
    assert bench_ab._quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == [2.0, 4.0]
    assert bench_ab._quartiles([1.0, 2.0]) == [1.25, 1.75]


def _runs(**metrics):
    """One run per index: {"metrics": {key: {"value": v, "unit": "u"}}}."""
    n = len(next(iter(metrics.values())))
    return [{"metrics": {key.replace("__", "."): {"value": values[i], "unit": "u"}
                         for key, values in metrics.items()}} for i in range(n)]


def test_medians_take_direction_from_the_metric_suffix_and_count_pair_wins():
    better = {"runs_per_s": "higher", "run_s.p50": "lower"}
    parent = _runs(solve__runs_per_s=[10.0, 20.0, 30.0], solve__run_s__p50=[1.0, 1.0, 1.0],
                   solve__xruns_per_s=[1.0, 1.0, 1.0], runs_per_s=[1.0, 2.0, 3.0])
    change = _runs(solve__runs_per_s=[11.0, 19.0, 40.0], solve__run_s__p50=[0.5, 2.0, 0.9],
                   solve__xruns_per_s=[2.0, 2.0, 2.0], runs_per_s=[1.0, 2.0, 3.0])
    out = bench_ab._medians(parent, change, better)
    # a key matches a metric name whole or after a dot, never as a bare suffix
    assert set(out) == {"solve.runs_per_s", "solve.run_s.p50", "runs_per_s"}
    rate = out["solve.runs_per_s"]
    assert rate["better"] == "higher" and rate["change_wins_pairs"] == "2/3"
    assert (rate["parent"], rate["change"]) == (20.0, 19.0)
    assert rate["change_over_parent"] == pytest.approx(0.95)
    assert rate["parent_quartiles"] == [15.0, 25.0] and rate["parent_iqr"] == 10.0
    p50 = out["solve.run_s.p50"]
    assert p50["better"] == "lower" and p50["change_wins_pairs"] == "2/3"
    # equal runs win no pair
    assert out["runs_per_s"]["change_wins_pairs"] == "0/3"


@pytest.mark.parametrize("value, writes", [("1", False), (None, True)])
def test_bytecode_reports_what_the_benchmark_interpreters_do(monkeypatch, value, writes):
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    assert bench_ab._bytecode() == {"PYTHONDONTWRITEBYTECODE": value,
                                    "dont_write_bytecode": not writes}


def test_missing_workdir_is_created(monkeypatch, tmp_path):
    # no export and no benchmark runs: both are replaced by stand-ins
    exported = []

    def export(ref, dest):
        dest.mkdir(parents=True)
        exported.append((ref, dest))

    def run(checkout, args):
        return {"seed": 1}, {"correct": True, "failed": 0,
                             "metrics": {"runs_per_s": {"value": 1.0, "unit": "1/s"}}}

    monkeypatch.setattr(bench_ab, "_git", lambda *args: args[-1])
    monkeypatch.setattr(bench_ab, "_export", export)
    monkeypatch.setattr(bench_ab, "_run", run)
    workdir, out = tmp_path / "missing" / "work", tmp_path / "bench.json"
    assert bench_ab.main(["A", "B", "--out", str(out), "--workload", "solve:1",
                          "--pairs", "1", "--workdir", str(workdir)]) == 0
    assert workdir.is_dir() and [ref for ref, _ in exported] == ["A", "B"]
    assert all(dest.parent.parent == workdir for _, dest in exported)
    result = json.loads(out.read_text())
    assert result["solve"]["median"]["runs_per_s"]["change_wins_pairs"] == "0/1"
    assert workdir.resolve().is_relative_to(result["filesystem"]["mount_point"])


def test_filesystem_is_the_deepest_mount_holding_the_path(tmp_path):
    mounts = tmp_path / "mounts"
    mounts.write_text(
        "/dev/vda / ext4 rw,relatime 0 0\n"
        "tmpfs /work tmpfs rw,nosuid 0 0\n"
        "/dev/vdb /work/deep\\040dir xfs rw,noatime 0 0\n"
        "/dev/vdc /workshop ext4 ro 0 0\n"
        "overlay /work tmpfs rw,size=8k 0 0\n", encoding="utf-8")

    def fs(path):
        return bench_ab._filesystem(Path(path), mounts)

    assert fs("/work/deep dir/tmp/parent") == {
        "device": "/dev/vdb", "mount_point": "/work/deep dir", "type": "xfs",
        "options": "rw,noatime"}
    # /workshop shares a prefix with /work, but only whole components count;
    # of two mounts on /work the later one is on top
    assert fs("/work/deep/tmp")["device"] == "overlay"
    assert fs("/work")["options"] == "rw,size=8k"
    assert fs("/workshop/x")["device"] == "/dev/vdc"
    assert fs("/srv/bench")["mount_point"] == "/"
    assert bench_ab._filesystem(Path("/srv"), tmp_path / "no-such-table") is None
