"""Specs the façades build over and over, built once."""

from __future__ import annotations

from repro.core.transactions import ReadViewOp, TransactionSpec


class ViewReadSpecs:
    """The frozen one-op view-read spec per ``(item, bound, work)``.

    A read-mostly client asks the same few questions all day; a spec
    is frozen and analysed at construction (``__post_init__``), so the
    identical one is kept instead of being rebuilt per call. Ids,
    labels and results are those of a fresh spec.
    """

    def __init__(self, label: str) -> None:
        self._label = label
        self._specs: dict[tuple, TransactionSpec] = {}

    def get(self, item: str, bound: float | None,
            work: float) -> TransactionSpec:
        key = (item, bound, work)
        spec = self._specs.get(key)
        if spec is None:
            spec = self._specs[key] = TransactionSpec(
                ops=(ReadViewOp(item, bound=bound),),
                label=f"{self._label}:{item}", work=work)
        return spec
