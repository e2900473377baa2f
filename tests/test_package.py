import importlib
import inspect

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
