import sys
from collections import Counter

import numpy as np
import pytest

import kfr.linalg

#: The dense LAPACK factorizations ``kfr`` reaches, as ``np.linalg`` names.
FACTORIZATIONS = ("eigh", "eigvalsh", "svd", "cholesky")


class EigenCalls(list):
    """Matrix sizes of ``symmetric_eig`` calls, one entry per call; the
    parallel ``vectors`` list says whether that call asked for vectors, and
    ``factorizations`` holds ``(kind, input shape)`` for each dense
    factorization that actually ran, one of :data:`FACTORIZATIONS`."""

    def __init__(self):
        super().__init__()
        self.vectors: list[bool] = []
        self.factorizations: list[tuple[str, tuple[int, ...]]] = []

    @property
    def values_only(self) -> int:
        return self.vectors.count(False)

    @property
    def tally(self) -> dict[str, int]:
        """Factorizations per kind, every kind present (zero if none ran)."""
        counts = Counter(kind for kind, _ in self.factorizations)
        return {kind: counts[kind] for kind in FACTORIZATIONS}


@pytest.fixture
def count_eigs(monkeypatch):
    """Call to start counting ``symmetric_eig`` calls and dense
    factorizations: returns an :class:`EigenCalls` that grows by one entry
    per call from then on.

    ``from .linalg import symmetric_eig`` copies the name into other
    modules, so every ``kfr`` module binding is replaced, not just one.
    ``kfr`` reaches LAPACK only as ``np.linalg.<kind>``, so those attributes
    are replaced; numpy's own internal calls are not counted, and neither
    is ``symmetric_eig``'s already-diagonal path, which factors nothing.
    """

    def start() -> EigenCalls:
        calls = EigenCalls()
        original = kfr.linalg.symmetric_eig

        def counting(matrix, **kwargs):
            calls.append(np.shape(matrix)[0])
            calls.vectors.append(kwargs.get("vectors", True))
            return original(matrix, **kwargs)

        def counting_factorization(kind):
            factor = getattr(np.linalg, kind)

            def counted(matrix, *args, **kwargs):
                calls.factorizations.append((kind, np.shape(matrix)))
                return factor(matrix, *args, **kwargs)

            return counted

        for name, module in list(sys.modules.items()):
            if name == "kfr" or name.startswith("kfr."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        for kind in FACTORIZATIONS:
            monkeypatch.setattr(np.linalg, kind, counting_factorization(kind))
        return calls

    return start
