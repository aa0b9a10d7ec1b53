import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "unreached.py"
_SPEC = importlib.util.spec_from_file_location("unreached", _PATH)
unreached = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(unreached)

SIGN = """\
def sign(x):
    if x < 0:
        return -1
    return 1
"""


def test_untaken_branch_is_the_one_line_unreached(tmp_path):
    path = tmp_path / "sign.py"
    path.write_text(SIGN, encoding="utf-8")
    before = sys.gettrace()
    with unreached.recording(str(tmp_path)) as ran:
        spec = importlib.util.spec_from_file_location("sign", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.sign(2) == 1
    assert sys.gettrace() is before
    assert {line for name, line in ran if name == str(path)} == {1, 2, 4}
    assert unreached.unreached(path, ran) == [(3, "return -1")]


def test_cli_traffic_is_the_corpus_and_every_workload_pool():
    # 11 corpus configs, then 6 pool variants of the four workloads' 7, 4,
    # 7 and 8 runs
    configs = unreached.cli_configs()
    assert len(configs) == 11 + 156
    assert all(isinstance(config["command"], str) for config in configs)
