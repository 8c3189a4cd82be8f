"""The process-parallel signing backend over shared-memory arenas.

The backend's contract is exactness first: for every scheme shape the
workers must reproduce ``scheme.sign`` byte-identically from the shared
arena, and the shared-memory block must never outlive the signing call
-- including when a worker or the parent raises mid-flight.
"""

import glob
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SignatureError
from repro.gf import GF
from repro.sig import (
    BatchSigner,
    PageArena,
    make_scheme,
    resolve_workers,
    scheme_from_spec,
    scheme_spec,
)
from repro.sig.twisted import log_interpretation_scheme

from .mixed_inputs import matrix_lane

SCHEMES = {
    "gf16": make_scheme(f=16, n=2),
    "gf8": make_scheme(f=8, n=4),
    "gf16-twisted": log_interpretation_scheme(GF(16), n=2),
    "gf8-twisted": log_interpretation_scheme(GF(8), n=3),
}


def byte_pages(scheme, max_pages=6, max_symbols=40):
    symbol_bytes = scheme.scheme_id.symbol_bytes
    page = st.binary(min_size=0, max_size=max_symbols * symbol_bytes) \
        .map(lambda b: b[:len(b) - len(b) % symbol_bytes])
    return st.lists(page, min_size=0, max_size=max_pages)


@pytest.fixture(autouse=True)
def _matrix_lane():
    """Every test here drives the process pool, which only the packed
    matrix lane reaches; pin the small-run crossover out of the way."""
    with matrix_lane():
        yield


def shm_segments():
    """Names of live POSIX shared-memory segments (Linux)."""
    return set(glob.glob("/dev/shm/*")) if os.path.isdir("/dev/shm") else set()


# ----------------------------------------------------------------------
# Worker configuration
# ----------------------------------------------------------------------

class TestResolveWorkers:

    def test_explicit_request_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIGN_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIGN_WORKERS", "5")
        assert resolve_workers() == 5

    def test_env_must_be_a_positive_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIGN_WORKERS", "zero")
        with pytest.raises(SignatureError):
            resolve_workers()
        monkeypatch.setenv("REPRO_SIGN_WORKERS", "0")
        with pytest.raises(SignatureError):
            resolve_workers()

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIGN_WORKERS", raising=False)
        assert resolve_workers() == (os.cpu_count() or 1)


# ----------------------------------------------------------------------
# Scheme specs: what travels to the workers
# ----------------------------------------------------------------------

class TestSchemeSpec:

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_round_trip_signs_identically(self, name):
        scheme = SCHEMES[name]
        rebuilt = scheme_from_spec(scheme_spec(scheme))
        assert rebuilt.scheme_id == scheme.scheme_id
        page = bytes(range(64))
        assert rebuilt.sign(page) == scheme.sign(page)

    def test_spec_is_hashable(self):
        # Specs key the worker-side scheme cache.
        assert len({scheme_spec(s) for s in SCHEMES.values()}) == len(SCHEMES)


# ----------------------------------------------------------------------
# Exactness: process backend == scheme.sign
# ----------------------------------------------------------------------

class TestProcessExactness:

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_process_backend_equals_reference(self, name, data):
        scheme = SCHEMES[name]
        pages = data.draw(byte_pages(scheme))
        signer = BatchSigner(scheme, workers=2)
        assert signer.sign_many(pages) == [scheme.sign(p) for p in pages]

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_process_backend_over_arena_views(self, name):
        scheme = SCHEMES[name]
        symbol_bytes = scheme.scheme_id.symbol_bytes
        pages = [bytes([(i * 7 + j) % 256 for j in range(i * 9 * symbol_bytes)])
                 for i in range(12)]
        arena, views = PageArena.from_pages(pages, align=symbol_bytes)
        try:
            signer = BatchSigner(scheme, workers=2)
            assert signer.sign_many(views) == [scheme.sign(p) for p in pages]
        finally:
            arena.close()

    def test_process_backend_large_batch_spans_workers(self):
        scheme = SCHEMES["gf16"]
        pages = [bytes([i % 256] * 400) for i in range(128)]
        # A small block budget forces multiple spans -> multiple tasks.
        signer = BatchSigner(scheme, workers=2,
                             block_symbols=2048)
        assert signer.sign_many(pages) == [scheme.sign(p) for p in pages]

    def test_single_worker_process_backend_stays_in_process(self,
                                                             monkeypatch):
        from repro.sig import parallel

        def no_pool(*_args, **_kwargs):
            raise AssertionError("one worker must not use the pool")

        monkeypatch.setattr(parallel, "sign_flat_spans", no_pool)
        scheme = SCHEMES["gf16"]
        pages = [b"abcd", b"efgh"]
        for signer in (BatchSigner(scheme), BatchSigner(scheme, workers=1)):
            assert signer.sign_many(pages) == [scheme.sign(p) for p in pages]


# ----------------------------------------------------------------------
# Shared-memory lifetime
# ----------------------------------------------------------------------

class TestSharedMemoryCleanup:

    def test_no_segments_leak_after_signing(self):
        before = shm_segments()
        signer = BatchSigner(SCHEMES["gf16"], workers=2)
        signer.sign_many([bytes([i % 256] * 256) for i in range(32)])
        assert shm_segments() - before == set()

    def test_arena_unlinked_when_signing_crashes(self, monkeypatch):
        """A mid-flight failure must still unlink the shared block."""
        from repro.sig import parallel

        before = shm_segments()

        def explode(*_args, **_kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(parallel, "get_pool", explode)
        signer = BatchSigner(SCHEMES["gf16"], workers=2)
        with pytest.raises(RuntimeError):
            signer.sign_many([b"abcd" * 64] * 8)
        assert shm_segments() - before == set()

    def test_owned_shared_arena_unlinks_on_close(self):
        before = shm_segments()
        arena = PageArena(4096, shared=True)
        arena.append(b"payload")
        assert arena.name is not None
        arena.close()
        arena.close()
        assert shm_segments() - before == set()

    def test_attached_arena_close_does_not_unlink(self):
        owner = PageArena(4096, shared=True)
        view = owner.append(b"shared-bytes")
        worker_side = PageArena.attach(owner.name, owner.used)
        try:
            assert bytes(worker_side.view(
                view.offset, view.length).memoryview()) == b"shared-bytes"
            worker_side.close()
            # The owner's mapping must still be alive after a worker detach.
            assert bytes(view.memoryview()) == b"shared-bytes"
        finally:
            owner.close()
