import importlib

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
