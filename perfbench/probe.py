"""Set-up probe, run in a fresh interpreter by ``run.py``.

Usage: probe.py CONFIGS_JSON OUT_DIR

Reads a JSON list of configs with the standard library only, then times
``import ncpde`` plus the first config's ``cli.run``: the cost of a one-shot
``ncpde --config``.  It then runs the remaining configs and reports the
process's peak resident memory.  Prints one JSON line.
"""

import json
import resource
import sys
import time
from pathlib import Path


def _peak_rss_mb() -> float:
    # VmHWM belongs to this process image; ru_maxrss can carry over the
    # parent's peak across fork and exec
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    configs = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    out_dir = sys.argv[2]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    from ncpde import cli

    cli.run(configs[0], out_dir=out_dir, quiet=True)
    setup = time.perf_counter() - t0
    import calibrate

    calibrate.kernel()
    cal = sorted(calibrate.measure() for _ in range(5))[2]
    for config in configs[1:]:
        cli.run(config, out_dir=out_dir, quiet=True)
    print(json.dumps({"setup_s": setup, "calib_s": cal, "peak_rss_mb": _peak_rss_mb()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
