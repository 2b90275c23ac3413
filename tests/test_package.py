"""The package namespace: `import adipsim` loads no layer, and each public
name or layer module loads its home module on first read.

What a fresh interpreter loads is only seen in a fresh interpreter, so one
child process, run with this interpreter's -O and -W flags, reads the
package step by step and prints what it saw as JSON; the checks run here.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import adipsim

# The package's public names and their home modules, in the order of
# `__all__` when the package imported every layer eagerly.
PUBLIC = {
    "AnalyticParams": "analytic",
    "Arch": "cost",
    "ArraySim": "array",
    "CostParams": "cost",
    "MatMulJob": "tiling",
    "MhaConfig": "workload",
    "PackedGrid": "preprocess",
    "PhaseError": "array",
    "PsumOverflowError": "array",
    "Precision": "preprocess",
    "Stage": "workload",
    "StageCost": "cost",
    "StageSpec": "workload",
    "TiledPlan": "tiling",
    "TiledResult": "tiling",
    "breakdown": "workload",
    "builtin_models": "workload",
    "dmul_latency": "analytic",
    "get_model": "workload",
    "oracle_matmul": "tiling",
    "peak_throughput": "analytic",
    "plan": "tiling",
    "prepare_weights": "preprocess",
    "run_tiled": "tiling",
    "stage_latency": "cost",
    "stages": "workload",
    "summary": "cost",
    "sweep": "analytic",
    "throughput": "analytic",
    "tile_latency": "analytic",
    "total_ops": "workload",
    "unprepare_weights": "preprocess",
}
LAYERS = ["analytic", "array", "cost", "numerics", "preprocess", "tiling", "workload"]
SIMULATOR = ["adipsim.array", "adipsim.numerics", "adipsim.preprocess", "adipsim.tiling"]

CHILD = textwrap.dedent(
    """
    import importlib, json, sys
    import numpy as np

    public, layers = json.loads(sys.argv[1])
    seen = {}

    def loaded():
        return sorted(m for m in sys.modules if m.startswith("adipsim."))

    import adipsim
    seen["import"] = loaded()
    a, w = np.arange(12).reshape(3, 4) - 6, np.arange(8).reshape(4, 2) % 3 - 1
    job = adipsim.MatMulJob(a, [w], adipsim.Precision.W8, 4)
    seen["outputs_exact"] = bool(np.array_equal(adipsim.run_tiled(job).outputs[0], a @ w))
    seen["run"] = loaded()
    adipsim.summary
    seen["summary"] = loaded()
    star = {}
    exec("from adipsim import *", star)
    seen["star"] = sorted(name for name in star if not name.startswith("__"))
    seen["unbound"] = sorted(name for name in adipsim.__all__ if name not in vars(adipsim))
    seen["not_home"] = sorted(
        name
        for name, module in public.items()
        if not (star[name] is getattr(adipsim, name) is getattr(importlib.import_module("adipsim." + module), name))
    )
    seen["not_modules"] = sorted(
        layer for layer in layers if getattr(adipsim, layer) is not sys.modules["adipsim." + layer]
    )
    seen["dir"] = dir(adipsim)
    seen["all"] = adipsim.__all__
    try:
        adipsim.no_such_name
    except AttributeError as exc:
        seen["unknown"] = str(exc)
    seen["hasattr_unknown"] = hasattr(adipsim, "no_such_name")
    print(json.dumps(seen))
    """
)


def _fresh_interpreter_reads():
    src = Path(adipsim.__file__).resolve().parents[1]
    flags = ["-O"] * sys.flags.optimize + [f"-W{option}" for option in sys.warnoptions]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, *flags, "-c", CHILD, json.dumps([PUBLIC, LAYERS])],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout)


def test_each_layer_loads_on_first_read():
    seen = _fresh_interpreter_reads()
    names = list(PUBLIC)
    assert seen["import"] == []
    assert seen["outputs_exact"]
    assert seen["run"] == SIMULATOR
    assert seen["summary"] == sorted([*SIMULATOR, "adipsim.cost", "adipsim.workload"])
    assert seen["all"] == names
    assert len(names) == 32
    assert seen["star"] == sorted(names)
    assert seen["unbound"] == []
    assert seen["not_home"] == []
    assert seen["not_modules"] == []
    assert [name for name in [*names, *LAYERS] if name not in seen["dir"]] == []
    assert seen["unknown"] == "module 'adipsim' has no attribute 'no_such_name'"
    assert not seen["hasattr_unknown"]
