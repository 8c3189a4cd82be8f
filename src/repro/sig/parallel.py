"""The process-parallel signing backend over shared-memory arenas.

In one process every signing span contends for the GIL around the numpy
dispatch; on many-core boxes single-process signing caps out well below
memory bandwidth.  ``BatchSigner(workers=K)`` with ``K > 1`` signs
through this module instead:

* the parent lands the batch's narrow symbol run **once** in a
  :class:`~repro.sig.arena.PageArena` backed by
  :mod:`multiprocessing.shared_memory`;
* width groups of rows (:func:`~repro.gf.vectorized.width_groups`,
  bounded by the signer's ``block_symbols``) land one after another and
  go to a process pool whose workers map the arena **by name** -- page
  content is never pickled, only ``(name, spec, offset, lengths)``
  coordinates;
* each worker rebuilds the scheme from a compact :func:`scheme_spec`
  (field + base parameters; twisted schemes ship their bijection name,
  or the table itself for custom phis), signs its group through the same
  ``pack_flat`` + ``batch_signature_matrix`` kernels, and returns only
  the small component matrix;
* the parent scatters components back to input order -- byte-identical to
  the in-process path (property-tested in ``tests/test_sig_parallel.py``),
  so the paper's Proposition 1/2 detection guarantees are untouched.

Cleanup is crash-safe: the shared block is created and unlinked in the
same ``try/finally``, so a worker exception (or a broken pool) never
leaks ``/dev/shm`` segments; worker-side mappings are closed per task.

Callers that size the pool from the environment use
:func:`resolve_workers`: an explicit count, else the
``REPRO_SIGN_WORKERS`` override, else ``os.cpu_count()``.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from ..errors import SignatureError
from ..gf.field import GF
from ..gf.vectorized import (batch_signature_matrix, group_run, pack_flat,
                             scatter_groups, symbol_dtype, width_groups)
from .arena import LEDGER, PageArena
from .scheme import AlgebraicSignatureScheme
from .twisted import TwistedScheme, log_interpretation_scheme

#: Scheme spec tuple: (f, generator, n, variant, alpha, phi_name, phi_bytes).
SchemeSpec = tuple


def resolve_workers(requested: int | None = None,
                    env: str | tuple[str, ...] = "REPRO_SIGN_WORKERS") -> int:
    """The worker count: explicit > environment override(s) > cpu_count.

    ``requested`` wins when given; otherwise the environment override is
    honoured (ops pin the signing fleet without code changes), else the
    machine's core count.  Always at least 1.

    ``env`` may be a tuple of variable names forming a precedence chain
    -- the first set (non-empty) variable wins.  Recovery resolves
    ``("REPRO_RECOVERY_WORKERS", "REPRO_SIGN_WORKERS")`` so the scan
    fleet can be pinned independently of the signing fleet but falls
    back to it.
    """
    if requested is not None:
        if requested < 1:
            raise SignatureError("workers must be a positive count")
        return requested
    names = (env,) if isinstance(env, str) else env
    for name in names:
        raw = os.environ.get(name, "").strip()
        if not raw:
            continue
        try:
            value = int(raw)
        except ValueError:
            raise SignatureError(
                f"{name} must be an integer, not {raw!r}"
            ) from None
        if value < 1:
            raise SignatureError(f"{name} must be positive")
        return value
    return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Scheme round-tripping (parent -> worker, no pickling of live objects)
# ----------------------------------------------------------------------

def scheme_spec(scheme: AlgebraicSignatureScheme) -> SchemeSpec:
    """A compact, hashable description a worker can rebuild from.

    Twisted schemes with the well-known ``log`` bijection ship only the
    name (workers rebuild the table from the field); custom bijections
    ship the raw ``int64`` table bytes.
    """
    phi_name = None
    phi_bytes = None
    if isinstance(scheme, TwistedScheme):
        base_variant = scheme.base.variant
        variant_tag = scheme.scheme_id.variant
        phi_name = variant_tag[len("twisted-"):-(len(base_variant) + 1)]
        if phi_name != "log":
            phi_bytes = scheme.phi.tobytes()
    return (
        scheme.field.f,
        scheme.field.generator,
        scheme.n,
        scheme.base.variant,
        int(scheme.base.betas[0]),
        phi_name,
        phi_bytes,
    )


def scheme_from_spec(spec: SchemeSpec) -> AlgebraicSignatureScheme:
    """Rebuild the scheme a spec describes (exact ``scheme_id`` match)."""
    f, generator, n, variant, alpha, phi_name, phi_bytes = spec
    field = GF(f, generator)
    if phi_name is None:
        return AlgebraicSignatureScheme(field, n, variant, alpha)
    if phi_name == "log":
        return log_interpretation_scheme(field, n, variant, alpha)
    phi = np.frombuffer(phi_bytes, dtype=np.int64)
    return TwistedScheme(field, n, variant, alpha, phi=phi,
                         phi_name=phi_name)


_WORKER_SCHEMES: dict[SchemeSpec, AlgebraicSignatureScheme] = {}


def _cached_scheme(spec: SchemeSpec) -> AlgebraicSignatureScheme:
    scheme = _WORKER_SCHEMES.get(spec)
    if scheme is None:
        scheme = _WORKER_SCHEMES[spec] = scheme_from_spec(spec)
    return scheme


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

def _sign_attached(scheme: AlgebraicSignatureScheme, buf,
                   start_symbol: int, lengths: list[int]) -> np.ndarray:
    """Sign one width group of an attached arena; returns its components.

    Runs in its own frame so every view of the shared buffer dies before
    the caller closes the mapping.
    """
    field = scheme.field
    dtype = symbol_dtype(field)
    count = int(sum(lengths))
    flat = np.frombuffer(buf, dtype=dtype, count=count,
                         offset=start_symbol * dtype.itemsize)
    mapped = scheme.map_symbols(flat)
    matrix = pack_flat(mapped, np.asarray(lengths, dtype=np.int64))
    return batch_signature_matrix(field, matrix, scheme.base.betas)


def _worker_sign(task) -> np.ndarray:
    """Pool entry point: attach by name, sign the group, detach."""
    name, spec, start_symbol, lengths = task
    from multiprocessing import shared_memory

    scheme = _cached_scheme(spec)
    shm = shared_memory.SharedMemory(name=name)
    try:
        return _sign_attached(scheme, shm.buf, start_symbol, lengths)
    finally:
        shm.close()


# ----------------------------------------------------------------------
# Pool management
# ----------------------------------------------------------------------

_POOLS: dict[int, ProcessPoolExecutor] = {}
_POOL_LOCK = threading.Lock()


def _make_pool(workers: int) -> ProcessPoolExecutor:
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else None
    )
    return ProcessPoolExecutor(max_workers=workers, mp_context=context)


def get_pool(workers: int) -> ProcessPoolExecutor:
    """The shared process pool for ``workers`` (created lazily)."""
    if workers < 1:
        raise SignatureError("workers must be a positive count")
    with _POOL_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = _POOLS[workers] = _make_pool(workers)
    return pool


def _discard_pool(workers: int, pool: ProcessPoolExecutor) -> None:
    """Drop a broken pool so the next call gets a fresh one."""
    with _POOL_LOCK:
        if _POOLS.get(workers) is pool:
            del _POOLS[workers]
    pool.shutdown(wait=False, cancel_futures=True)


def shutdown_pools() -> None:
    """Tear down every cached pool (atexit, and test isolation)."""
    with _POOL_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_pools)


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

def sign_flat_spans(scheme: AlgebraicSignatureScheme, flat: np.ndarray,
                    lengths: np.ndarray, workers: int,
                    block_symbols: int) -> np.ndarray:
    """Component matrix of a flat narrow batch, signed across processes.

    ``flat`` is the parent's narrow (pre-mapping) symbol run; it lands
    once in a shared arena, one width group (:func:`~repro.gf.
    vectorized.width_groups`, the in-process lane's grouping) after
    another, workers sign disjoint groups, and the result is the same
    ``(N, n)`` int64 matrix the in-process lane produces.  The shared
    block is unlinked on every exit path.
    """
    starts = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=starts[1:])
    dtype = symbol_dtype(scheme.field)
    nbytes = int(flat.size) * dtype.itemsize
    groups = width_groups(lengths, block_symbols, workers)
    arena = PageArena(max(nbytes, 1), shared=True, align=dtype.itemsize)
    try:
        landing = np.frombuffer(arena.buffer_view, dtype=dtype,
                                count=flat.size)
        tasks = []
        at = 0
        for rows in groups:
            sizes = lengths[rows]
            end = at + int(sizes.sum())
            landing[at:end] = group_run(flat, starts, lengths, rows)
            tasks.append((at, sizes.tolist()))
            at = end
        del landing
        LEDGER.count(nbytes)
        spec = scheme_spec(scheme)
        pool = get_pool(workers)
        try:
            futures = [
                pool.submit(_worker_sign, (arena.name, spec, at, sizes))
                for at, sizes in tasks
            ]
            return scatter_groups(
                zip(groups, [future.result() for future in futures]),
                int(lengths.size))
        except BrokenProcessPool:
            # A dead worker poisons the whole executor; drop it so the
            # next call builds a fresh pool (the shared block is still
            # unlinked by the finally below -- nothing leaks).
            _discard_pool(workers, pool)
            raise
    finally:
        arena.close()
