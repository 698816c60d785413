import sys

import numpy as np
import pytest

import kfr.linalg


@pytest.fixture
def count_eigs(monkeypatch):
    """Call to start counting ``symmetric_eig`` calls: returns the list of
    their matrix sizes, one entry per call from then on.

    ``from .linalg import symmetric_eig`` copies the name into other
    modules, so every ``kfr`` module binding is replaced, not just one.
    """

    def start() -> list[int]:
        sizes = []
        original = kfr.linalg.symmetric_eig

        def counting(matrix):
            sizes.append(np.shape(matrix)[0])
            return original(matrix)

        for name, module in list(sys.modules.items()):
            if name == "kfr" or name.startswith("kfr."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        return sizes

    return start
