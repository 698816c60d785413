import sys

import numpy as np
import pytest

import kfr.linalg


class EigenCalls(list):
    """Matrix sizes of ``symmetric_eig`` calls, one entry per call; the
    parallel ``vectors`` list says whether that call asked for vectors."""

    def __init__(self):
        super().__init__()
        self.vectors: list[bool] = []

    @property
    def values_only(self) -> int:
        return self.vectors.count(False)


@pytest.fixture
def count_eigs(monkeypatch):
    """Call to start counting ``symmetric_eig`` calls: returns an
    :class:`EigenCalls` that grows by one entry per call from then on.

    ``from .linalg import symmetric_eig`` copies the name into other
    modules, so every ``kfr`` module binding is replaced, not just one.
    """

    def start() -> EigenCalls:
        calls = EigenCalls()
        original = kfr.linalg.symmetric_eig

        def counting(matrix, **kwargs):
            calls.append(np.shape(matrix)[0])
            calls.vectors.append(kwargs.get("vectors", True))
            return original(matrix, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "kfr" or name.startswith("kfr."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        return calls

    return start
