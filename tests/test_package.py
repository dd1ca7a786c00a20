import argparse
import ast
import dataclasses
import importlib
import importlib.util
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mecoffload
from mecoffload.bnb import SolveReport, solve_bnb
from mecoffload.cli import build_parser
from mecoffload.ibnb import ThresholdPolicy, solve_ibnb
from mecoffload.lp import LinearProgram, solve_lp
from mecoffload.mlp import TrainConfig

#: Every module of the package but ``__main__``, which runs the command line.
LAYERS = [importlib.import_module(f"mecoffload.{info.name}")
          for info in pkgutil.iter_modules(mecoffload.__path__)
          if info.name != "__main__"]


@pytest.mark.parametrize("module", LAYERS, ids=lambda m: m.__name__)
def test_every_listed_name_resolves(module):
    # Tools wrap every function a layer lists, by getattr over __all__, so a
    # stale entry breaks them even though no import fails.
    names = module.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("layer", ["scenario", "lp"])
def test_a_leaf_layer_loads_no_other_layer(layer):
    # The package holds no names of its own: every caller imports each name
    # from the layer that defines it, so importing a layer that uses no
    # other must load that layer alone.  Checked in a fresh interpreter,
    # since this one has loaded every layer.
    src = str(Path(mecoffload.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (f"import sys, mecoffload.{layer}\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('mecoffload'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["mecoffload", f"mecoffload.{layer}"]


@pytest.mark.parametrize("module", LAYERS, ids=lambda m: m.__name__)
def test_no_layer_imports_another_layers_private_name(module):
    # A layer's API is what it lists in __all__; a function another layer
    # calls must be listed there, or tools that wrap listed functions, such
    # as the traced benchmark, book its time to its caller.
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").startswith("mecoffload"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_labels_the_traced_benchmark_reads_name_listed_functions():
    # perfbench/run.py reads its per-layer metrics by span label
    # ("<layer>.<function>") from defaultdicts, and its tracer wraps only
    # the functions a layer lists in __all__; a label naming a function
    # that was renamed or unlisted would silently read 0.
    run = (Path(__file__).resolve().parents[1] / "perfbench" / "run.py").read_text()
    labels = set(re.findall(r'\b(?:calls|ms)\("([\w.]+)"\)', run))
    labels |= set(re.findall(r'\b(?:spans|setup|tags)\["([\w.]+)"', run))
    assert {"lp.solve_lp", "mlp.forward", "dataset.label_trace", "cli.cmd_gen_data"} <= labels
    for label in sorted(labels):
        layer, name = label.split(".")
        module = importlib.import_module(f"mecoffload.{layer}")
        assert name in module.__all__, f"{label}: {name!r} not in {module.__name__}.__all__"
        fn = getattr(module, name)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, label
    # It reads fell_back_to_exact through getattr with a default, so a
    # report of every solver must carry it.
    assert "fell_back_to_exact" in {f.name for f in dataclasses.fields(SolveReport)}
    # Its tracer tags every solve_lp call by the result's status, read as
    # "optimal" on a solve that returns.
    from tracer import TAGS

    assert TAGS["lp.solve_lp"](solve_lp(LinearProgram(np.array([1.0])))) == "optimal"


def test_settable_value_count():
    # A setting with one value in use is a named constant, not an option.
    # Settable values are every subcommand's flags, the fields of the two
    # settings classes and the keywords of the search entry points; a new
    # one must be counted in here on purpose.
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = [option for sub in commands.choices.values() for action in sub._actions
             if not isinstance(action, argparse._HelpAction)
             for option in action.option_strings]
    fields = [f.name for cls in (ThresholdPolicy, TrainConfig)
              for f in dataclasses.fields(cls)]
    keywords = {name for solve in (solve_bnb, solve_ibnb)
                for name, p in inspect.signature(solve).parameters.items()
                if p.kind is inspect.Parameter.KEYWORD_ONLY}
    assert keywords == set()
    assert (len(flags), len(fields), len(keywords)) == (23, 6, 0)


def load_script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_trace_digest_script_runs_without_a_model(capsys):
    # Byte identity of the search is checked with scripts/trace_digest.py,
    # which reads the report's and the trace nodes' fields: a field it
    # reads that goes away must fail here first.
    script = load_script("trace_digest")
    assert script.main(["--frames", "1"]) == 0
    counts, digest = capsys.readouterr().out.splitlines()
    solves, nodes = re.fullmatch(r"solves=(\d+) trace_nodes=(\d+)", counts).groups()
    assert int(solves) == 2 * len(script.SIZES)   # bnb and exhaustive per frame
    assert int(nodes) > int(solves)
    assert re.fullmatch(r"[0-9a-f]{64}", digest)


def test_gate_front_script_smoke_run():
    # scripts/gate_front.py at its smallest: 2 training frames, 2 epochs,
    # one training seed and 2 held-out frames, one point per threshold.
    script = load_script("gate_front")
    assert script.TRAIN_SEEDS[0] == script.recipe.SEED
    points = script.front(script.recipe.CONFIG, 2, 2, [100], 2)
    assert [p["theta0"] for p in points] == list(script.THETAS)
    for p in points:
        assert p["train_seed"] == 100 and p["node_ratio"] > 0
        assert 0 <= p["above_psi_star"] <= 2
        # A gated answer is never below the exact optimum.
        assert -script.ABOVE_RTOL <= p["mean_gap"] <= p["max_gap"]
