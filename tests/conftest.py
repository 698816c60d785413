import sys

import numpy as np
import pytest

import kfr.linalg


class EigenCalls(list):
    """Matrix sizes of ``symmetric_eig`` calls, one entry per call; the
    parallel ``vectors`` list says whether that call asked for vectors, and
    ``svds`` holds the input shape of each ``np.linalg.svd`` call."""

    def __init__(self):
        super().__init__()
        self.vectors: list[bool] = []
        self.svds: list[tuple[int, ...]] = []

    @property
    def values_only(self) -> int:
        return self.vectors.count(False)


@pytest.fixture
def count_eigs(monkeypatch):
    """Call to start counting ``symmetric_eig`` and ``np.linalg.svd`` calls:
    returns an :class:`EigenCalls` that grows by one entry per call from
    then on.

    ``from .linalg import symmetric_eig`` copies the name into other
    modules, so every ``kfr`` module binding is replaced, not just one.
    ``kfr`` reaches the SVD only as ``np.linalg.svd``, so that one
    attribute is replaced; numpy's own internal SVDs are not counted.
    """

    def start() -> EigenCalls:
        calls = EigenCalls()
        original = kfr.linalg.symmetric_eig
        original_svd = np.linalg.svd

        def counting(matrix, **kwargs):
            calls.append(np.shape(matrix)[0])
            calls.vectors.append(kwargs.get("vectors", True))
            return original(matrix, **kwargs)

        def counting_svd(matrix, *args, **kwargs):
            calls.svds.append(np.shape(matrix))
            return original_svd(matrix, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "kfr" or name.startswith("kfr."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        return calls

    return start
