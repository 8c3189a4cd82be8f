"""The one LH*/RP* split and owner lookup that every SDDS file uses.

"Each split sends about half of a bucket to a newly created bucket"
(Section 2).  ``LHFile.split`` and ``RPFile.split`` return the new
server and the records they moved; the serving plane and the files'
own ``maybe_split`` account the transfer from that list, so it must
be exactly what changed buckets, stored signatures included.
``owner`` must agree with ``check_placement`` for every stored key.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SDDSError
from repro.sdds import LHFile, Record, RPFile
from repro.sig import make_scheme


def make_file(family, initial_buckets):
    scheme = make_scheme(f=8, n=2)
    if family == "lh":
        return LHFile(scheme, capacity_records=8, store_signatures=True,
                      initial_buckets=initial_buckets)
    return RPFile(scheme, capacity_records=8, store_signatures=True)


def image_of(server):
    """key -> (value, signature) for every record ``server`` holds."""
    return {key: (server.bucket.get(key).value, server.record_signature(key))
            for key in server.bucket.keys()}


def split_source(file, family):
    """The LH* pointer bucket, or the fullest RP* bucket; None when no
    bucket can split (a one-key RP* bucket has no inner median)."""
    if family == "lh":
        return file.servers[file.state.pointer]
    source = max(file.servers, key=lambda server: len(server.bucket))
    return source if len(source.bucket) >= 2 else None


@given(family=st.sampled_from(["lh", "rp"]),
       initial_buckets=st.integers(1, 3),
       keys=st.lists(st.integers(0, 2**32 - 1), unique=True,
                     min_size=1, max_size=120),
       split_every=st.integers(2, 25))
@settings(max_examples=60, deadline=None)
def test_split_moves_exactly_the_returned_records(family, initial_buckets,
                                                  keys, split_every):
    file = make_file(family, initial_buckets)
    for position, key in enumerate(keys, start=1):
        owner = file.server(file.owner(key))
        assert owner.insert(Record(key, key.to_bytes(4, "little") * 3))
        if position % split_every:
            continue
        source = split_source(file, family)
        if source is None:
            continue
        before = image_of(source)
        target, moved = (file.split() if family == "lh"
                         else file.split(source))
        after = image_of(source)
        arrived = image_of(target)
        moved_keys = [record.key for record in moved]
        assert moved_keys == sorted(arrived)
        assert not set(moved_keys) & set(after)
        assert {**after, **arrived} == before
        assert all(arrived[record.key][0] == record.value
                   for record in moved)
        # Stored signatures travel with their records: none is signed
        # again at the new bucket.
        assert target.stats.sig_computations == 0
        file.check_placement()
    file.check_placement()
    for server in file.servers:
        for key in server.bucket.keys():
            assert file.owner(key) == server.server_id


def scanned_owner(file, key):
    """The RP* bucket whose interval holds ``key``, by a linear scan."""
    owners = [server.server_id for server in file.servers if server.owns(key)]
    assert len(owners) == 1, (key, owners)
    return owners[0]


@given(keys=st.lists(st.integers(0, 2**32 - 1), unique=True,
                     min_size=2, max_size=150),
       probes=st.lists(st.integers(0, 2**32 - 1), max_size=40),
       split_every=st.integers(2, 20))
@settings(max_examples=60, deadline=None)
def test_rp_owner_bisect_agrees_with_the_intervals(keys, probes, split_every):
    """``RPFile.owner`` bisects the interval lows that ``split`` keeps:
    after any sequence of splits it names the one bucket whose interval
    holds the key -- stored keys, probe keys and every interval edge."""
    file = make_file("rp", 1)
    for position, key in enumerate(keys, start=1):
        assert file.server(file.owner(key)).insert(
            Record(key, key.to_bytes(4, "little")))
        source = split_source(file, "rp")
        if position % split_every == 0 and source is not None:
            file.split(source)
    file.check_placement()
    edges = [edge for server in file.servers
             for edge in (server.low, server.high - 1)]
    for key in [*keys, *probes, *edges]:
        assert file.owner(key) == scanned_owner(file, key)
    for outside in (-1, 2**32):
        with pytest.raises(SDDSError):
            file.owner(outside)
