"""Vectorized (numpy) kernels for bulk Galois-field signature work.

The paper's C implementation reaches ~5 us/KB by keeping the log/antilog
tables hot in cache.  A symbol-at-a-time Python loop is three orders of
magnitude slower, which would distort every timing comparison (this is
the "easy but slow GF loops" caveat of the reproduction).  These kernels
express the same table-lookup algorithm as numpy gathers and a final
XOR-reduction, restoring throughput to the point where the *shape* of the
paper's timing results is measurable.

The scalar transliteration of the paper's pseudo-code lives in
:mod:`repro.sig.scheme` (``AlgebraicSignatureScheme.sign_scalar``) and
is checked against these kernels in the tests.  Every kernel gathers
through the field's zero-sentinel tables (``sentinel_log`` /
``sentinel_antilog``), where a zero symbol's logarithm indexes a run of
zeros: no kernel masks, branches on, or filters out zero symbols.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from ..errors import GaloisFieldError
from .field import GField


def symbol_dtype(field: GField) -> np.dtype:
    """The narrow dtype that holds one symbol: ``uint8`` or ``<u2``."""
    return np.dtype(np.uint8) if field.f <= 8 else np.dtype("<u2")


def narrow_symbol_view(data, field: GField) -> np.ndarray | None:
    """Zero-copy *narrow* symbol view of a raw byte buffer.

    Returns a ``uint8`` (f=8) or little-endian ``uint16`` (f=16) array
    aliasing ``data`` without any materialization, or ``None`` when the
    buffer cannot be viewed in place (odd byte length under f=16 -- the
    caller falls back to the padding path).  Narrow views feed the 2-D
    kernels directly: the table gathers index with any integer dtype,
    so the classic ``int64`` widening (8x / 4x the payload in memory
    traffic) is skipped entirely on the zero-copy lanes.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        return None
    if field.f == 8:
        return np.frombuffer(data, dtype=np.uint8)
    if field.f == 16:
        if len(data) % 2:
            return None
        return np.frombuffer(data, dtype="<u2")
    raise GaloisFieldError(
        f"byte reinterpretation needs f in (8, 16), not {field.f}"
    )


def bytes_to_symbols(data: bytes | bytearray | memoryview, field: GField) -> np.ndarray:
    """Reinterpret raw bytes as an array of GF(2^f) symbols.

    * f = 8: one symbol per byte.
    * f = 16: little-endian double-byte symbols; odd-length input is
      zero-padded on the right (the paper's SDDS pages are size-aligned,
      so padding only arises for the final fragment of odd objects).
    * other f: unsupported for byte reinterpretation -- construct symbol
      arrays directly instead (used by the small-field experiments).

    The buffer is aliased in place (no intermediate ``bytes`` copy);
    only the final dtype widening materializes anything.
    """
    view = narrow_symbol_view(data, field)
    if view is None and field.f == 16:
        raw = bytes(data) + b"\x00"
        view = np.frombuffer(raw, dtype="<u2")
    return view.astype(np.int64)


def symbols_to_bytes(symbols: np.ndarray, field: GField) -> bytes:
    """Inverse of :func:`bytes_to_symbols` (without un-padding)."""
    if field.f == 8:
        return symbols.astype(np.uint8).tobytes()
    if field.f == 16:
        return symbols.astype("<u2").tobytes()
    raise GaloisFieldError(
        f"byte reinterpretation needs f in (8, 16), not {field.f}"
    )


def as_symbol_array(page, field: GField) -> np.ndarray:
    """Coerce bytes or any integer sequence to an int64 symbol array."""
    if isinstance(page, (bytes, bytearray, memoryview)):
        return bytes_to_symbols(page, field)
    arr = np.asarray(page, dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= field.size):
        raise GaloisFieldError(f"symbols out of range for GF(2^{field.f})")
    return arr


# ----------------------------------------------------------------------
# The shared β-power ladder store
# ----------------------------------------------------------------------
#
# Every signing path weights symbol ``i`` by ``beta^i``, i.e. needs the
# position-exponent ladder ``(log(beta) * i) mod (2^f - 1)``.  Computing
# it is one integer multiply + modulo per symbol -- as expensive as the
# signature gathers themselves.  The ladders depend only on (field, beta,
# length), so one process-wide LRU store amortizes them across *every*
# caller: the scalar per-page kernels below, the rolling/window scanner,
# and the 2-D batch kernels.  Entries grow geometrically (power-of-two
# capacities) and are handed out as read-only views, so a ladder built
# for a 64 KB page also serves every shorter page for free.

_LADDER_LOCK = threading.Lock()
_LADDERS: OrderedDict[tuple[int, int, int], np.ndarray] = OrderedDict()
#: Distinct (field, beta) ladders kept; LRU-evicted beyond this.
LADDER_CACHE_MAX = 64
#: Smallest ladder capacity built (below this, growth churn dominates).
_LADDER_MIN_CAPACITY = 1024


def _ladder_capacity(length: int) -> int:
    """Power-of-two capacity covering ``length`` (geometric growth)."""
    capacity = _LADDER_MIN_CAPACITY
    while capacity < length:
        capacity <<= 1
    return capacity


def ladder_exponents(field: GField, beta: int, length: int) -> np.ndarray:
    """The position-exponent ladder ``[(log(beta) * i) % order, i < length]``.

    Returned as a read-only ``int32`` view into the shared LRU store --
    callers must never mutate it.  Every entry is below ``2^f - 1``, so
    a sentinel logarithm plus a ladder entry never widens past
    ``int32``.  ``field.antilog_table[ladder]`` yields the weight array
    ``[beta^0, beta^1, ...]``; adding symbol logarithms and gathering
    from the *doubled* antilog table multiplies without any modulo
    reduction (the Section 4.1 trick, applied per-array).
    """
    if beta == 0:
        raise GaloisFieldError("signature base element must be non-zero")
    log_beta = field.log(beta)
    key = (field.f, field.generator, log_beta)
    with _LADDER_LOCK:
        ladder = _LADDERS.get(key)
        if ladder is not None and ladder.size >= length:
            _LADDERS.move_to_end(key)
            return ladder[:length]
        capacity = _ladder_capacity(length)
        ladder = ((log_beta * np.arange(capacity, dtype=np.int64))
                  % field.order).astype(np.int32)
        ladder.flags.writeable = False
        _LADDERS[key] = ladder
        _LADDERS.move_to_end(key)
        while len(_LADDERS) > LADDER_CACHE_MAX:
            _LADDERS.popitem(last=False)
    return ladder[:length]


def power_weights(field: GField, beta: int, length: int, start: int = 0) -> np.ndarray:
    """Return the array ``[beta^start, beta^(start+1), ..., beta^(start+length-1)]``."""
    if beta == 0:
        raise GaloisFieldError("signature base element must be non-zero")
    ladder = ladder_exponents(field, beta, length)
    if start:
        shift = (field.log(beta) * start) % field.order
        return field.sentinel_antilog[ladder + shift].astype(np.int64)
    return field.antilog_table[ladder].astype(np.int64)


def component_signature(field: GField, symbols: np.ndarray, beta: int) -> int:
    """Compute ``sig_beta(P) = XOR_i p_i * beta^i`` with table gathers.

    This is the vectorized form of the paper's Section 5.1 loop:
    ``returnValue ^= antilog[i + log(page[i])]`` generalized to an
    arbitrary base ``beta`` (the loop's base is alpha, log alpha = 1).
    """
    return signature_vector(field, symbols, (beta,))[0]


def ladder_matrix(field: GField, betas: tuple[int, ...], length: int) -> np.ndarray:
    """The ``(n, capacity)`` stack of a base's ladders, capacity >= ``length``.

    Capacities grow geometrically, so a holder that keeps the matrix
    (a scheme, for its one-body kernel) rebuilds it rarely.  The stack
    is ``intp``: :func:`run_signature_matrix` gathers through the
    whole-body sum of logs and ladder entries, and an ``intp`` index
    needs no conversion pass first.
    """
    capacity = _ladder_capacity(length)
    return np.stack([ladder_exponents(field, beta, capacity)
                     for beta in betas]).astype(np.intp)


def body_components(field: GField, symbols: np.ndarray,
                    ladders: np.ndarray) -> np.ndarray:
    """The ``(n,)`` components of one body of (mapped) symbols.

    The Section 5.1 log/antilog kernel for a lone body: each symbol's
    sentinel log plus the ``(n, L)`` slice of an ``(n, >= L)``
    :func:`ladder_matrix`, gathered once through the sentinel antilog,
    then one XOR reduction per component.  ``scheme.sign``, the seal
    codec's lean lane and a lone-body run of the engine's small lane
    all sign one body here.
    """
    terms = field.sentinel_antilog[field.sentinel_log[symbols]
                                   + ladders[:, :symbols.size]]
    return np.bitwise_xor.reduce(terms, axis=1)


def run_signature_matrix(field: GField, flat: np.ndarray, lengths: np.ndarray,
                         ladders: np.ndarray) -> np.ndarray:
    """Component signatures of a short run of bodies, without packing.

    ``flat`` holds the (mapped) symbols of every body back to back,
    ``lengths`` their sizes, and ``ladders`` is an ``(n, >= longest)``
    :func:`ladder_matrix`.  A lone body is :func:`body_components`;
    otherwise each symbol's sentinel log is added to the ladder entry of
    its position *within its body* and gathered once, and one XOR
    reduction per body yields its components.  Returns ``(N, n)``.
    """
    if lengths.size == 1:
        return body_components(field, flat, ladders)[None, :]
    logs = field.sentinel_log[flat]
    starts = np.zeros(lengths.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    positions = np.arange(flat.size) - np.repeat(starts, lengths)
    terms = field.sentinel_antilog[logs + ladders.take(positions, axis=1)]
    out = np.zeros((lengths.size, ladders.shape[0]), dtype=np.int64)
    filled = lengths > 0
    if flat.size:
        out[filled] = np.bitwise_xor.reduceat(terms, starts[filled], axis=1).T
    return out


def signature_vector(field: GField, symbols: np.ndarray, betas: tuple[int, ...]) -> tuple[int, ...]:
    """Compute every component signature of a page for the base ``betas``.

    One sentinel gather over the ``(n, L)`` ladder slice and one XOR
    reduction (:func:`body_components`) -- no per-call power
    recomputation and no modulo in the inner expression.
    """
    ladders = ladder_matrix(field, betas, symbols.size)
    return tuple(body_components(field, symbols, ladders).tolist())


def term_array(field: GField, symbols: np.ndarray, beta: int) -> np.ndarray:
    """Return the term array ``t_i = p_i * beta^i`` (zeros preserved).

    Building block for prefix/rolling signatures: the signature of the
    window ``[a, b)`` is ``XOR(t_a .. t_{b-1}) * beta^{-a}``.
    """
    ladder = ladder_exponents(field, beta, symbols.size)
    return field.sentinel_antilog[field.sentinel_log[symbols] + ladder].astype(np.int64)


# ----------------------------------------------------------------------
# Many-page (2-D) kernels
# ----------------------------------------------------------------------

#: Mask-fill regime boundary: the vectorized boolean-mask store builds
#: an ``(N, L)`` mask, so it wins only when rows are short relative to
#: the batch (measured crossover near ``N ~ 8 L``; see PERFORMANCE.md).
_MASK_FILL_ROW_RATIO = 8


def pack_flat(flat: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Pack one flat symbol run into a zero-padded ``(N, L)`` matrix.

    ``flat`` is the concatenation of ``N`` pages whose sizes are given
    by ``lengths``.  Two shortcuts avoid any fill: a single page
    returns a ``(1, L)`` view, and uniform-length pages return a
    zero-copy ``reshape``.  Mixed lengths are filled by the strategy
    the regime favors: one vectorized boolean-mask store for many short
    rows (row-major assignment order matches concatenation order
    exactly), or contiguous per-row slice copies when rows are long and
    few -- there the ``(N, L)`` mask itself would cost more than the
    copies (measured crossover near ``N ~ 8 L``).

    The matrix keeps ``flat``'s dtype -- narrow (uint8/uint16) inputs
    stay narrow, which is what keeps the arena lanes copy-cheap.
    """
    n_pages = int(lengths.size)
    if n_pages == 0:
        return np.zeros((0, 0), dtype=flat.dtype)
    width = int(lengths.max())
    if width == 0:
        return np.zeros((n_pages, 0), dtype=flat.dtype)
    if n_pages == 1:
        return flat.reshape(1, width)
    if int(lengths.min()) == width:
        return flat.reshape(n_pages, width)
    matrix = np.zeros((n_pages, width), dtype=flat.dtype)
    if n_pages >= _MASK_FILL_ROW_RATIO * width:
        matrix[np.arange(width) < lengths[:, None]] = flat
        return matrix
    starts = np.zeros(n_pages + 1, dtype=np.int64)
    np.cumsum(lengths, out=starts[1:])
    for row in range(n_pages):
        matrix[row, :lengths[row]] = flat[starts[row]:starts[row + 1]]
    return matrix


#: Rows narrower than this never start a width group of their own: they
#: group with rows up to twice this width.  Below it a separate matrix
#: saves less padding than its own fixed cost (measured in
#: PERFORMANCE.md).
GROUP_FLOOR_SYMBOLS = 128

#: A row group of a batch: a ``slice`` of consecutive rows, or an
#: ascending index array when the group's rows are not adjacent.
RowGroup = slice | np.ndarray


def width_groups(lengths: np.ndarray, block_symbols: int,
                 parts: int = 1) -> list[RowGroup]:
    """Row groups of a batch whose :func:`pack_flat` matrices stay tight.

    Rows are stable-sorted by length and cut into groups: a group ends
    before the first row more than twice as wide as its narrowest row
    (or as :data:`GROUP_FLOOR_SYMBOLS`, when that is wider), or before
    ``rows x widest row`` would exceed ``block_symbols`` (a single
    over-wide row still forms its own group).  A packed matrix
    therefore pads a row by less than 2x, instead of to the widest row
    of the whole batch -- a log segment's 52-symbol delta frames no
    longer ride in 2064-symbol page-frame rows.  With ``parts > 1`` the
    groups are further split until there are at least ``parts`` of them
    (where rows allow), so every worker gets a task.

    Each group lists its rows in input order: a ``slice`` when they are
    consecutive, else an ascending index array.  A batch that would form
    one group anyway (a uniform batch, say) is not sorted at all: it
    splits into plain row blocks of at most ``block_symbols`` padded
    symbols.
    """
    count = int(lengths.size)
    if not count:
        return []
    widest = int(lengths.max())
    if widest <= 2 * max(int(lengths.min()), GROUP_FLOOR_SYMBOLS):
        order = None
        step = max(1, block_symbols // widest) if widest else count
        spans = [(lo, min(lo + step, count)) for lo in range(0, count, step)]
    else:
        order = np.argsort(lengths, kind="stable")
        ordered = lengths[order]
        cuts = [0]
        while cuts[-1] < count:
            lo = cuts[-1]
            narrowest = int(ordered[lo])
            hi = int(np.searchsorted(ordered,
                                     2 * max(narrowest, GROUP_FLOOR_SYMBOLS),
                                     side="right"))
            if narrowest:
                hi = min(hi, lo + block_symbols // narrowest)
            cells = ordered[lo:hi] * np.arange(1, hi - lo + 1)
            cuts.append(lo + max(1, int(np.searchsorted(
                cells, block_symbols, side="right"))))
        spans = list(zip(cuts, cuts[1:]))
    if parts > 1 and len(spans) < parts:
        split: list[tuple[int, int]] = []
        for lo, hi in spans:
            step = -(-(hi - lo) // min(parts, hi - lo))
            split.extend((at, min(at + step, hi)) for at in range(lo, hi, step))
        spans = split
    if order is None:
        return [slice(lo, hi) for lo, hi in spans]
    groups: list[RowGroup] = []
    for lo, hi in spans:
        rows = np.sort(order[lo:hi])
        first, last = int(rows[0]), int(rows[-1])
        groups.append(slice(first, last + 1) if last - first == hi - lo - 1
                      else rows)
    return groups


def group_run(flat: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
              rows: RowGroup) -> np.ndarray:
    """The symbols of one row group of a flat run, back to back.

    ``starts`` are the exclusive prefix sums of ``lengths`` (one entry
    more than rows).  A ``slice`` group is a zero-copy view of ``flat``;
    an index-array group is gathered in one ``take``.
    """
    if isinstance(rows, slice):
        return flat[starts[rows.start]:starts[rows.stop]]
    sizes = lengths[rows]
    offsets = np.cumsum(sizes) - sizes
    index = np.arange(int(sizes.sum())) + np.repeat(starts[rows] - offsets,
                                                    sizes)
    return flat.take(index)


def scatter_groups(parts, count: int) -> np.ndarray:
    """Per-group component blocks, scattered back to input row order.

    ``parts`` yields ``(rows, block)`` pairs, one per :func:`width_groups`
    group of a ``count``-row batch; a lone group covers every row in
    order and is returned as is.
    """
    parts = list(parts)
    if len(parts) == 1:
        return parts[0][1]
    out = np.empty((count, parts[0][1].shape[1]), dtype=np.int64)
    for rows, block in parts:
        out[rows] = block
    return out


#: Symbols per row block of :func:`batch_signature_matrix`.  A block's
#: log, index and term buffers (at most 10 bytes per symbol) stay in L2,
#: where the unblocked kernel streamed ~4 MB int64 temporaries per
#: component of a 1 MiB log segment.  Measured by
#: ``benchmarks/kernel_blocks.py``; see PERFORMANCE.md.
KERNEL_BLOCK_SYMBOLS = 1 << 15


def batch_signature_matrix(field: GField, matrix: np.ndarray,
                           betas: tuple[int, ...]) -> np.ndarray:
    """Component signatures of every row of a zero-padded symbol matrix.

    The batch analogue of :func:`signature_vector`, walked in row
    blocks of about :data:`KERNEL_BLOCK_SYMBOLS` symbols: per block one
    sentinel log-gather, then per base coordinate one add of the cached
    ``int32`` ladder and one sentinel-antilog gather (padding gathers
    0), XOR-reduced along each row.  The ``int32`` log and index
    buffers and the narrow term buffer are allocated once per call and
    refilled in place (``np.take(..., out=)``, ``np.add(..., out=)``),
    so they stay in cache; the ladder is amortized over all ``N`` pages
    -- Broder-style batching.  The matrix may be narrow (``uint8``/``<u2``) or any
    wider integer dtype.

    Returns an ``(N, len(betas))`` int64 matrix of components.
    """
    n_pages, width = matrix.shape
    out = np.zeros((n_pages, len(betas)), dtype=np.int64)
    if not n_pages or not width:
        return out
    ladders = [ladder_exponents(field, beta, width) for beta in betas]
    # ``take`` buffers its output unless told how to treat out-of-range
    # indices.  Sums of a sentinel log and a ladder entry always index
    # the antilog table, and so does any symbol of a matrix whose
    # unsigned dtype is exactly f bits wide; "wrap" is then a no-op.
    # Other matrices keep the bounds check.
    exact = matrix.dtype.kind == "u" and matrix.dtype.itemsize * 8 == field.f
    log_mode = "wrap" if exact else "raise"
    rows = min(n_pages, max(1, KERNEL_BLOCK_SYMBOLS // width))
    logs = np.empty((rows, width), dtype=np.int32)
    index = np.empty_like(logs)
    terms = np.empty((rows, width), dtype=field.sentinel_antilog.dtype)
    for lo in range(0, n_pages, rows):
        hi = min(lo + rows, n_pages)
        block_logs, block_index, block_terms = \
            logs[:hi - lo], index[:hi - lo], terms[:hi - lo]
        np.take(field.sentinel_log, matrix[lo:hi], out=block_logs,
                mode=log_mode)
        for j, ladder in enumerate(ladders):
            np.add(block_logs, ladder, out=block_index)
            np.take(field.sentinel_antilog, block_index, out=block_terms,
                    mode="wrap")
            out[lo:hi, j] = np.bitwise_xor.reduce(block_terms, axis=1)
    return out


def fold_concat_level(field: GField, components: np.ndarray,
                      lengths: np.ndarray, betas: tuple[int, ...],
                      fanout: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Proposition-5 fold of one signature-tree level.

    ``components`` is the ``(m, n)`` matrix of child component
    signatures and ``lengths`` their symbol lengths; children are folded
    in groups of ``fanout``: parent component ``j`` is
    ``XOR_k child_{k,j} * beta_j^{offset_k}`` with ``offset_k`` the
    cumulative symbol length of the earlier siblings -- exactly the
    :func:`repro.sig.algebra.concat_all` recurrence, evaluated for every
    group at once.

    Returns ``(parent_components, parent_lengths)``.
    """
    m, n = components.shape
    groups = (m + fanout - 1) // fanout
    padded = groups * fanout
    comps = np.zeros((padded, n), dtype=np.int64)
    comps[:m] = components
    lens = np.zeros(padded, dtype=np.int64)
    lens[:m] = lengths
    lens = lens.reshape(groups, fanout)
    offsets = np.cumsum(lens, axis=1) - lens       # exclusive per-group cumsum
    parent_lengths = lens.sum(axis=1)
    grouped = comps.reshape(groups, fanout, n)
    out = np.zeros((groups, n), dtype=np.int64)
    for j, beta in enumerate(betas):
        if beta == 0:
            raise GaloisFieldError("signature base element must be non-zero")
        shift = (field.log(beta) * offsets) % field.order
        terms = field.sentinel_antilog[field.sentinel_log[grouped[:, :, j]] + shift]
        out[:, j] = np.bitwise_xor.reduce(terms, axis=1)
    return out, parent_lengths


def shift_rows(field: GField, components: np.ndarray, positions: np.ndarray,
               betas: tuple[int, ...]) -> np.ndarray:
    """Proposition-3 position shift of many signatures at once.

    ``components`` is an ``(N, n)`` matrix of component signatures and
    ``positions`` the symbol offset of each row; the result scales row
    ``k``'s coordinate ``j`` by ``beta_j^{positions[k]}`` -- the
    ``alpha^r`` factor of ``sig(P') = sig(P) + alpha^r sig(delta)``,
    evaluated for every row in one gather per base coordinate.
    """
    n_rows, n = components.shape
    out = np.zeros_like(components)
    if n_rows == 0:
        return out
    positions = np.asarray(positions, dtype=np.int64)
    for j, beta in enumerate(betas):
        if beta == 0:
            raise GaloisFieldError("signature base element must be non-zero")
        shift = (field.log(beta) * positions) % field.order
        out[:, j] = field.sentinel_antilog[field.sentinel_log[components[:, j]] + shift]
    return out


def delta_signature_matrix(field: GField, matrix: np.ndarray,
                           positions: np.ndarray,
                           betas: tuple[int, ...]) -> np.ndarray:
    """Shifted component signatures of many delta regions in one pass.

    Row ``k`` of ``matrix`` holds the (zero-padded, already-mapped)
    delta symbols of one journaled region and ``positions[k]`` its
    symbol offset within its page; the result row is
    ``alpha^{r_k} * sig(delta_k)`` -- exactly the term Proposition 3
    folds into the old page signature.  One
    :func:`batch_signature_matrix` pass over all regions, then one
    :func:`shift_rows` pass for the ``alpha^r`` scaling.
    """
    components = batch_signature_matrix(field, matrix, betas)
    return shift_rows(field, components, positions, betas)


def fold_rows_by_group(components: np.ndarray, groups: np.ndarray,
                       group_count: int) -> np.ndarray:
    """XOR-fold signature rows that share a group (page) index.

    ``groups[k]`` assigns row ``k`` to an output row; overlapping or
    multi-write regions of one page XOR-accumulate (field addition), so
    the result per page is the signature of the page's *net* delta.
    """
    out = np.zeros((group_count, components.shape[1]), dtype=np.int64)
    if components.shape[0]:
        np.bitwise_xor.at(out, np.asarray(groups, dtype=np.int64), components)
    return out


def prefix_xor(terms: np.ndarray) -> np.ndarray:
    """Exclusive prefix-XOR array of length ``len(terms) + 1``.

    ``out[i]`` is the XOR of ``terms[0:i]``; ``out[0] == 0``.
    """
    out = np.zeros(terms.size + 1, dtype=np.int64)
    if terms.size:
        np.bitwise_xor.accumulate(terms, out=out[1:])
    return out


def all_window_signatures(field: GField, symbols: np.ndarray, beta: int, window: int) -> np.ndarray:
    """Signatures of every length-``window`` substring, normalized to position 0.

    ``out[k] == sig_beta(symbols[k : k + window])`` for every valid ``k``.
    Runs in O(l) table gathers -- the property the paper inherits from
    Karp-Rabin fingerprints and uses for the distributed scan (Sec. 2.3).
    """
    if window <= 0:
        raise GaloisFieldError("window length must be positive")
    length = symbols.size
    if window > length:
        return np.zeros(0, dtype=np.int64)
    prefix = prefix_xor(term_array(field, symbols, beta))
    raw = prefix[window:] ^ prefix[:-window]          # sig of window, offset by beta^k
    n_windows = length - window + 1
    # Normalize: multiply by beta^{-k}.
    log_beta = field.log(beta)
    shift = (-log_beta * np.arange(n_windows, dtype=np.int64)) % field.order
    return field.sentinel_antilog[field.sentinel_log[raw] + shift].astype(np.int64)


def scale(field: GField, values: np.ndarray, factor: int) -> np.ndarray:
    """Multiply every array entry by the field constant ``factor``."""
    if factor == 0:
        return np.zeros_like(values)
    if factor == 1:
        return values.copy()
    logs = field.sentinel_log[values]
    return field.sentinel_antilog[logs + field.log(factor)].astype(values.dtype)
