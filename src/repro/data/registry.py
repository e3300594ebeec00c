"""Dataset registry: scaled analogs of the paper's Table 2, plus
spec-addressable file datasets.

``get_dataset`` accepts either a registered name (``"mnist8m_like"``) or
a dict spec. The dict form addresses file-backed data — the paper's real
datasets ship as LIBSVM text — or overrides a registered dataset's tuned
hyperparameters::

    {"name": "libsvm", "path": "rcv1_train.binary", "alpha_sgd": 2.0}
    {"name": "tiny_dense", "alpha_sgd": 1.0}


=================  ==========  =========  ==========================
Paper dataset      rows         cols       character
=================  ==========  =========  ==========================
rcv1_full.binary   697,641     47,236     sparse text features
mnist8m            8,100,000   784        dense, many rows
epsilon            400,000     2,000      dense, wide
=================  ==========  =========  ==========================

The analogs keep the *shape signatures* (sparse high-dimensional; dense
row-heavy; dense column-heavy) at sizes that run in seconds. Each spec
also records the paper's per-dataset hyperparameters from Section 6.1:
SGD/SAGA sampling rates and the PCS batch fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Mapping

import numpy as np

from repro.data.blocks import index_dtype
from repro.data.synthetic import (
    make_classification,
    make_dense_regression,
    make_sparse_regression,
)
from repro.errors import DataError

__all__ = ["DatasetSpec", "get_dataset", "list_datasets", "REGISTRY"]

#: What a dataset's targets are: continuous, or {-1, +1} labels.
TASKS = ("regression", "classification")


@dataclass(frozen=True)
class DatasetSpec:
    """A named dataset configuration with paper-matched hyperparameters."""

    name: str
    paper_name: str
    n: int
    d: int
    sparse: bool
    density: float
    #: Mini-batch sampling rates from Section 6.1 ("Parameter tuning").
    b_sgd: float
    b_saga: float
    b_pcs: float
    #: Conditioning / noise used by the generator.
    cond: float = 10.0
    noise: float = 0.01
    #: Tuned initial step sizes (the paper tunes per dataset, Section 6.1;
    #: async variants divide by the worker count).
    alpha_sgd: float = 0.5
    alpha_saga: float = 0.05
    #: Error target for time-to-error comparisons, as a fraction of the
    #: initial error (rcv1-style problems converge slowly, so their
    #: achievable target is looser — as in the paper's figures).
    target_rel: float = 0.05
    #: "regression" (continuous targets) or "classification" ({-1, +1}
    #: labels from a logistic ground truth — what the logistic problem
    #: and the federated examples consume).
    task: str = "regression"
    #: LIBSVM file to load instead of synthesizing; ``generate`` then
    #: reads the file (and the seed is ignored — file data is fixed).
    path: str | None = None

    def __post_init__(self) -> None:
        """Every override is checked here, whichever way it arrives."""
        for key in ("n", "d"):
            value = getattr(self, key)
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, np.integer))
                or value <= 0
            ):
                raise DataError(
                    f"dataset {self.name!r}: {key} must be a positive "
                    f"integer, got {value!r}"
                )
        if self.task not in TASKS:
            raise DataError(
                f"dataset {self.name!r}: unknown task {self.task!r}; "
                f"valid tasks: {list(TASKS)}"
            )
        if (
            self.task == "classification" and self.sparse
            and self.path is None
        ):
            raise DataError(
                f"dataset {self.name!r}: synthetic classification data is "
                "dense; set sparse=False or load a LIBSVM file"
            )

    def generate(self, seed: int = 0):
        """Materialize ``(X, y)`` deterministically."""
        if self.path is not None:
            from repro.data.libsvm import load_libsvm

            return load_libsvm(self.path)
        if self.task == "classification":
            X, y, _ = make_classification(
                self.n, self.d, cond=self.cond, seed=seed,
            )
        elif self.sparse:
            X, y, _ = make_sparse_regression(
                self.n, self.d, density=self.density, noise=self.noise,
                seed=seed,
            )
        else:
            X, y, _ = make_dense_regression(
                self.n, self.d, cond=self.cond, noise=self.noise, seed=seed,
            )
        return X, y

    @property
    def size_bytes(self) -> int:
        if self.sparse:  # a Csr's float64 data, indices and indptr
            nnz = self.n * max(1, round(self.density * self.d))
            isz = np.dtype(index_dtype(self.n, self.d, nnz)).itemsize
            return nnz * (8 + isz) + (self.n + 1) * isz
        return self.n * self.d * 8


REGISTRY: dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in [
        DatasetSpec(
            name="rcv1_like",
            paper_name="rcv1_full.binary",
            n=8192,
            d=256,
            sparse=True,
            density=0.02,
            b_sgd=0.05,
            b_saga=0.02,
            b_pcs=0.01,
            alpha_sgd=2.0,
            alpha_saga=0.5,
            target_rel=0.75,
        ),
        DatasetSpec(
            name="mnist8m_like",
            paper_name="mnist8m",
            n=16384,
            d=96,
            sparse=False,
            density=1.0,
            b_sgd=0.10,
            b_saga=0.01,
            b_pcs=0.01,
            cond=20.0,
            alpha_sgd=0.5,
            alpha_saga=0.05,
        ),
        DatasetSpec(
            name="epsilon_like",
            paper_name="epsilon",
            n=8192,
            d=192,
            sparse=False,
            density=1.0,
            b_sgd=0.10,
            b_saga=0.10,
            b_pcs=0.01,
            cond=8.0,
            alpha_sgd=1.0,
            alpha_saga=0.1,
        ),
    ]
}

# Smaller twins for unit tests and quick examples.
for _small in [
    DatasetSpec(
        name="tiny_dense", paper_name="(test)", n=512, d=16, sparse=False,
        density=1.0, b_sgd=0.25, b_saga=0.1, b_pcs=0.1, cond=5.0,
        alpha_sgd=0.5, alpha_saga=0.05,
    ),
    DatasetSpec(
        name="tiny_sparse", paper_name="(test)", n=512, d=64, sparse=True,
        density=0.05, b_sgd=0.25, b_saga=0.1, b_pcs=0.1,
        alpha_sgd=1.0, alpha_saga=0.2, target_rel=0.5,
    ),
    # Binary classification from a logistic ground truth: the dataset the
    # logistic-regression problem and its examples use.
    DatasetSpec(
        name="synth_logistic", paper_name="(synthetic logistic)",
        n=1024, d=16, sparse=False, density=1.0,
        b_sgd=0.25, b_saga=0.1, b_pcs=0.1, cond=5.0,
        alpha_sgd=0.5, alpha_saga=0.05, target_rel=0.8,
        task="classification",
    ),
]:
    REGISTRY[_small.name] = _small


def list_datasets() -> list[str]:
    return sorted(REGISTRY)


#: Hyperparameter defaults for file-backed (LIBSVM) datasets; any of them
#: can be overridden by keys in the dict spec.
_LIBSVM_DEFAULTS = dict(
    b_sgd=0.1, b_saga=0.05, b_pcs=0.01,
    alpha_sgd=0.5, alpha_saga=0.05, target_rel=0.05,
)


def _libsvm_dataset(params: dict):
    """Load a LIBSVM file and wrap it in a :class:`DatasetSpec`."""
    path = params.pop("path", None)
    if not isinstance(path, str):
        raise DataError(
            "libsvm dataset spec needs a 'path' key, e.g. "
            '{"name": "libsvm", "path": "rcv1_train.binary"}'
        )
    # n/d/sparse (and paper_name) come from the file itself; only the
    # tuned hyperparameters and generator knobs are overridable.
    known = {f.name for f in fields(DatasetSpec)} - {
        "name", "path", "paper_name", "n", "d", "sparse",
    }
    unknown = set(params) - known
    if unknown:
        raise DataError(
            f"unknown libsvm dataset key(s) {sorted(unknown)}; "
            f"valid overrides: {sorted(known)}"
        )
    from repro.data.libsvm import load_libsvm

    X, y = load_libsvm(path)
    base: dict[str, Any] = dict(_LIBSVM_DEFAULTS)
    base.update(params)
    base.setdefault("density", X.nnz / max(X.shape[0] * X.shape[1], 1))
    dspec = DatasetSpec(
        name=f"libsvm:{path}",
        paper_name="(libsvm file)",
        n=X.shape[0],
        d=X.shape[1],
        sparse=True,
        path=path,
        **base,
    )
    return X, y, dspec


def get_dataset(spec: str | Mapping[str, Any], seed: int = 0):
    """Return ``(X, y, spec)`` for a dataset name or dict spec.

    Strings address the registry; dicts address file-backed data
    (``{"name": "libsvm", "path": ...}``) or override a registered
    dataset's tuned hyperparameters.
    """
    if isinstance(spec, Mapping):
        params = dict(spec)
        name = params.pop("name", None)
        if not isinstance(name, str):
            raise DataError(
                f"dataset spec {dict(spec)!r} needs a 'name' key (a "
                "registered dataset or 'libsvm')"
            )
        if name == "libsvm":
            return _libsvm_dataset(params)
        if name not in REGISTRY:
            raise DataError(
                f"unknown dataset {name!r}; available: {list_datasets()} "
                "(or 'libsvm' with a 'path')"
            )
        try:
            dspec = replace(REGISTRY[name], **params)
        except TypeError as exc:
            raise DataError(
                f"bad override(s) for dataset {name!r}: {exc}"
            ) from exc
    else:
        try:
            dspec = REGISTRY[spec]
        except KeyError:
            raise DataError(
                f"unknown dataset {spec!r}; available: {list_datasets()}"
            ) from None
    X, y = dspec.generate(seed)
    return X, y, dspec
