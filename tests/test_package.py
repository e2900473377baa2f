import contextlib
import importlib
import inspect
import io
import re
from pathlib import Path

import annealed_langevin

_MODULES = ("schedule", "tasks", "composite", "theory", "tuner", "sampler", "metrics")


def test_package_all_lists_each_module_name_once():
    names = annealed_langevin.__all__
    assert len(names) == len(set(names)) == 50
    exported = ["__version__"]
    for module_name in _MODULES:
        module = importlib.import_module(f"annealed_langevin.{module_name}")
        for name in module.__all__:
            assert getattr(annealed_langevin, name) is getattr(module, name), name
        exported += module.__all__
    assert sorted(exported) == sorted(names)


# every package name perfbench/worker.py looks up and rebinds, with the parameters it binds
_WORKER_NAMES = {
    "cli": {"plan": ("task", "method"), "build_task": (), "exact_posterior_sample": (),
            "empirical_w2": ("a", "b", "cap")},
    "composite": {"composite_field": ("method",)},
    "sampler": {"ula_chain": ("start", "k"), "annealed_sample": ("seed",)},
    "tasks": {"joint_posterior_mixture": ()},
    "tuner": {"plan": ("task", "method"), "bridging_moments": (), "proxy_bridge": (),
              "gaussian_w2": ()},
    "metrics": {"empirical_w2": ("a", "b", "cap")},
}


def test_every_name_the_benchmark_worker_rebinds_is_still_bound():
    for module_name, names in _WORKER_NAMES.items():
        module = importlib.import_module(f"annealed_langevin.{module_name}")
        for name, params in names.items():
            func = getattr(module, name, None)
            assert callable(func), f"{module_name}.{name}"
            bound = inspect.signature(func).parameters
            assert set(params) <= set(bound), (f"{module_name}.{name}", params)
    # the cell hooks wrap these three where they are defined and must see the CLI's calls
    cli = importlib.import_module("annealed_langevin.cli")
    assert cli.plan is annealed_langevin.tuner.plan
    assert cli.annealed_sample is annealed_langevin.sampler.annealed_sample
    assert cli.empirical_w2 is annealed_langevin.metrics.empirical_w2


def test_readme_quick_start_runs_and_meets_its_gamma():
    # the one python block under "Quick start (library)" runs against the package as it is and
    # its last printed value, the samples' W2 to the exact posterior, is below gamma 0.5
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (library)", 1)[1].split("\n## ", 1)[0]
    [block] = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert float(out.getvalue().split()[-1]) < 0.5
