"""Spec-addressable datasets: dict specs, libsvm files, classification."""

import json

import numpy as np
import pytest

from repro.api import run_experiment
from repro.data.blocks import Csr
from repro.data.libsvm import dump_libsvm
from repro.data.registry import REGISTRY, get_dataset, list_datasets
from repro.data.synthetic import make_classification
from repro.errors import DataError
from test_blocks import to_scipy


@pytest.fixture
def libsvm_file(tmp_path):
    X, y, _ = make_classification(96, 6, seed=11)
    path = tmp_path / "small.libsvm"
    dump_libsvm(X, y, path)
    return str(path), X, y


def test_libsvm_dict_spec_loads_file(libsvm_file):
    path, X, y = libsvm_file
    Xl, yl, dspec = get_dataset({"name": "libsvm", "path": path})
    assert type(Xl) is Csr
    np.testing.assert_allclose(to_scipy(Xl).toarray(), X, rtol=1e-12)
    np.testing.assert_allclose(yl, y)
    assert dspec.n == 96 and dspec.d == 6
    assert dspec.name == f"libsvm:{path}"
    assert dspec.path == path
    # defaults fill the tuned hyperparameters
    assert dspec.b_sgd == 0.1 and dspec.alpha_sgd == 0.5


def test_libsvm_spec_accepts_hyperparameter_overrides(libsvm_file):
    path, _, _ = libsvm_file
    _, _, dspec = get_dataset(
        {"name": "libsvm", "path": path, "alpha_sgd": 2.0, "b_sgd": 0.5}
    )
    assert dspec.alpha_sgd == 2.0 and dspec.b_sgd == 0.5


def test_libsvm_spec_rejects_unknown_keys(libsvm_file):
    path, _, _ = libsvm_file
    with pytest.raises(DataError, match="unknown libsvm dataset key"):
        get_dataset({"name": "libsvm", "path": path, "rows": 10})


@pytest.mark.parametrize("key,value", [("n", 2), ("d", 3), ("sparse", False)])
def test_libsvm_spec_rejects_file_derived_fields(libsvm_file, key, value):
    """Regression: n/d/sparse come from the file; overriding them used to
    crash with a raw TypeError instead of a DataError."""
    path, _, _ = libsvm_file
    with pytest.raises(DataError, match="unknown libsvm dataset key"):
        get_dataset({"name": "libsvm", "path": path, key: value})


def test_libsvm_spec_requires_path():
    with pytest.raises(DataError, match="'path'"):
        get_dataset({"name": "libsvm"})


def test_dict_spec_requires_name():
    with pytest.raises(DataError, match="'name'"):
        get_dataset({"path": "x"})


def test_dict_spec_overrides_registered_dataset():
    _, _, dspec = get_dataset({"name": "tiny_dense", "alpha_sgd": 9.0})
    assert dspec.alpha_sgd == 9.0
    assert REGISTRY["tiny_dense"].alpha_sgd != 9.0  # registry untouched


def test_unknown_dataset_names_rejected():
    with pytest.raises(DataError):
        get_dataset("nope")
    with pytest.raises(DataError):
        get_dataset({"name": "nope"})


def test_libsvm_dataset_runs_end_to_end(libsvm_file):
    path, _, _ = libsvm_file
    res = run_experiment({
        "algorithm": "asgd",
        "dataset": {"name": "libsvm", "path": path},
        "problem": "logistic",
        "num_workers": 2,
        "num_partitions": 4,
        "max_updates": 8,
        "seed": 0,
    })
    assert res.updates == 8


def test_libsvm_dataset_sweeps_and_groups(libsvm_file):
    """Dict dataset specs survive grid expansion and cell grouping."""
    from repro.api import run_grid

    path, _, _ = libsvm_file
    summaries = run_grid({
        "base": {
            "algorithm": "asgd",
            "dataset": {"name": "libsvm", "path": path},
            "problem": "logistic",
            "num_workers": 2,
            "max_updates": 4,
        },
        "grid": {"barrier": ["asp", "bsp"]},
    })
    assert len(summaries) == 2
    assert all(s["updates"] == 4 for s in summaries)
    # the spec round-trips through the JSON summary
    assert summaries[0]["spec"]["dataset"] == {"name": "libsvm", "path": path}


def test_synth_logistic_registered():
    assert "synth_logistic" in list_datasets()
    X, y, dspec = get_dataset("synth_logistic")
    assert dspec.task == "classification"
    assert set(np.unique(y)) <= {-1.0, 1.0}


def test_cli_lists_datasets_delay_models_and_libsvm_form(capsys):
    from repro.__main__ import main

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "datasets:" in out and "synth_logistic" in out
    assert "delay models:" in out
    assert "libsvm" in out
    assert "granularities: worker, partition" in out


def test_cli_runs_partition_granular_specs(tmp_path, capsys):
    from repro.__main__ import main

    spec = {
        "algorithm": "asgd", "dataset": "synth_logistic",
        "problem": "logistic", "num_workers": 2, "num_partitions": 4,
        "granularity": "partition", "max_updates": 8, "seed": 0,
    }
    path = tmp_path / "partition.json"
    path.write_text(json.dumps(spec))
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "asgd" in out
    assert "granularity: partition" in out
