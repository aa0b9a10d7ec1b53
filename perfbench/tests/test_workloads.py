import itertools
import json
from pathlib import Path

from workloads import POOL, WORKLOADS, Run, mix_shares

ROOT = Path(__file__).resolve().parents[2]


def _payloads(name: str, seed: int, passes: int = 4) -> list[str]:
    stream = WORKLOADS[name].passes(seed)
    return [json.dumps(r.config, sort_keys=True)
            for p in itertools.islice(stream, passes) for r in p]


def test_same_seed_gives_same_payloads():
    for name in WORKLOADS:
        assert _payloads(name, 7) == _payloads(name, 7)


def test_different_seeds_give_different_payloads():
    for name in WORKLOADS:
        assert _payloads(name, 7) != _payloads(name, 8)


def test_variants_differ_in_payload_not_in_shape():
    for workload in WORKLOADS.values():
        a, b = workload.variant(0), workload.variant(1)
        assert [r.case for r in a] == [r.case for r in b]
        assert [r.config["command"] for r in a] == [r.config["command"] for r in b]
        assert all(x.config != y.config for x, y in zip(a, b))


def test_every_run_has_a_stored_reference():
    refs = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    for name, workload in WORKLOADS.items():
        keys = {r.key for v in range(POOL) for r in workload.variant(v)}
        assert keys == set(refs[name])


def test_benchmark_json_names_known_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_mix_shares():
    a = {"kind": "cyclic", "order": 2, "lengths": [0.0, 1.0]}
    b = {"kind": "cyclic", "order": 2, "lengths": [0.0, 2.0]}
    runs = [Run("x", 0, {"backend": a}, True, False),
            Run("y", 0, {"backend": b}, False, True),
            Run("z", 0, {"backend": a}, False, False),
            Run("w", 0, {"backend": a}, False, False)]
    assert mix_shares(runs) == {"descriptor_repeat_frac": 0.5, "timedep_frac": 0.25,
                                "project_kernel_frac": 0.25}
