"""Mixed-kind page inputs for the batch engine's exactness properties.

Every :class:`~repro.sig.BatchSigner` entry point accepts the same page
inputs: raw byte containers, arena :class:`~repro.sig.PageView`\\ s,
symbol sequences and symbol arrays, and odd-length GF(2^16) bytes
(zero-padded exactly as ``scheme.sign`` pads them).  A drawn page is a
``(kind, content)`` pair: ``content`` is the page's bytes, which the
reference ``scheme.sign`` signs directly, and ``kind`` names the input
form the engine is handed.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from hypothesis import strategies as st

from repro.sig import PageArena, engine

#: Every input form the engine accepts.  ``odd`` draws an odd byte
#: length on GF(2^16) (the padded lane); ``view`` lands the page in a
#: shared arena and passes its :class:`PageView`.
KINDS = ("bytes", "bytearray", "memoryview", "odd", "list", "array", "view")

_MAKERS = {
    "bytes": lambda content, scheme: bytes(content),
    "bytearray": lambda content, scheme: bytearray(content),
    "memoryview": lambda content, scheme: memoryview(content),
    "odd": lambda content, scheme: bytes(content),
    "list": lambda content, scheme: scheme.to_symbols(content).tolist(),
    "array": lambda content, scheme: scheme.to_symbols(content),
}


@contextmanager
def matrix_lane():
    """Route every run, however small, through the packed matrix lane.

    Runs under :data:`repro.sig.engine.SMALL_RUN_SYMBOLS` normally take
    the small lane; tests of the matrix lane's own machinery (spans,
    ladder cache, process pool) pin the crossover to zero instead of
    inflating their inputs.
    """
    with mock.patch.object(engine, "SMALL_RUN_SYMBOLS", 0):
        yield


def draw_page(data, scheme, max_symbols: int = 50,
              kind: str | None = None) -> tuple[str, bytes]:
    """Draw one ``(kind, content)`` page; empty pages are included."""
    if kind is None:
        kind = data.draw(st.sampled_from(KINDS))
    symbol_bytes = scheme.scheme_id.symbol_bytes
    size = data.draw(st.integers(0, max_symbols)) * symbol_bytes
    if kind == "odd" and symbol_bytes == 2:
        size += 1
    return kind, data.draw(st.binary(min_size=size, max_size=size))


def draw_batch(data, scheme, max_pages: int = 8,
               max_symbols: int = 50) -> list[tuple[str, bytes]]:
    """Draw a batch mixing every input kind in one call."""
    count = data.draw(st.integers(0, max_pages))
    return [draw_page(data, scheme, max_symbols) for _ in range(count)]


def every_kind(scheme, content: bytes) -> list[tuple[str, bytes]]:
    """One page of each kind, plus an empty one of each kind."""
    symbol_bytes = scheme.scheme_id.symbol_bytes
    aligned = content[:len(content) - len(content) % symbol_bytes]
    odd = aligned + b"\x7f" if symbol_bytes == 2 else aligned
    pages = []
    for kind in KINDS:
        pages.append((kind, odd if kind == "odd" else aligned))
        pages.append((kind, b"\x7f" if kind == "odd" and symbol_bytes == 2
                      else b""))
    return pages


@contextmanager
def materialized(scheme, pages: list[tuple[str, bytes]]):
    """Yield each page's input object; ``view`` pages share one arena."""
    arena, views = PageArena.from_pages(
        [content for kind, content in pages if kind == "view"],
        align=scheme.scheme_id.symbol_bytes,
    )
    views = iter(views)
    try:
        yield [next(views) if kind == "view" else _MAKERS[kind](content, scheme)
               for kind, content in pages]
    finally:
        arena.close()
