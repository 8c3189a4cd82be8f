"""Exception hierarchy for the ``repro`` package (paper reproduction).

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GaloisFieldError(ReproError):
    """Invalid Galois-field construction or operation."""


class NotInvertibleError(GaloisFieldError):
    """Attempt to invert zero or a singular GF matrix."""


class SignatureError(ReproError):
    """Invalid signature-scheme construction or operation."""


class PageTooLongError(SignatureError):
    """Page length violates the ``l < 2^f - 1`` bound of Proposition 1."""


class SignatureMismatchError(SignatureError):
    """Two signatures from incompatible schemes were combined."""


class SDDSError(ReproError):
    """Errors in the SDDS substrate (LH*, RP*, buckets, client/server)."""


class KeyNotFoundError(SDDSError):
    """Key lookup failed in an SDDS file or bucket."""


class DuplicateKeyError(SDDSError):
    """Insert of a key that already exists."""


class BucketFullError(SDDSError):
    """A bucket exceeded its capacity and cannot accept the record."""


class UpdateConflictError(ReproError):
    """Optimistic concurrency detected an intervening update (rollback)."""


class WireError(ReproError):
    """Malformed (but correctly signed) message body or bucket image."""


class BackupError(ReproError):
    """Errors in the backup engine (map mismatch, bad restore)."""


class StoreError(ReproError):
    """Errors in the durable signature-sealed page store."""


class ParityError(ReproError):
    """Errors in the Reed-Solomon parity subsystem."""


class ReconstructionError(ParityError):
    """Too many erasures to reconstruct a reliability group."""
