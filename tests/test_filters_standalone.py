"""The standalone storage-mode filter surface: from_fpp sizing,
insert/query/delete (scalar and batched), serialization, and the
engine batch seam.

Property-based where the contract is algebraic:

* ``from_fpp`` — power-of-two geometry, analytic fpp under the target,
  capacity covers the item count at the chosen load factor, and the
  measured fpp report stays within tolerance of the target;
* serialization — ``to_bytes``/``from_bytes`` round-trips the complete
  filter state, *including* the kick-walk LCG: the restored filter
  stays in RNG lockstep with the original under any further op stream;
* batching — ``insert_many``/``query_many``/``delete_many`` are
  state-identical to the scalar loops for any key sequence, on every
  available engine (reference loops, specialized kernel, C batch
  kernels);
* the f > 16 regression — ``fingerprint_bits=17`` builds no
  ``_alt_xor`` table and every surface (access, storage ops, batches,
  serialization) works on the inline-splitmix path.
"""

import math
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    SpecializedFilterBatch,
    available_engines,
    c_backend,
    filter_batch,
    set_engine,
)
from repro.filters.auto_cuckoo import AutoCuckooFilter
from repro.filters.metrics import (
    FppReport,
    fpp_report,
    theoretical_false_positive_rate,
)

keys = st.integers(min_value=0, max_value=(1 << 64) - 1)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
fpps = st.floats(min_value=1e-5, max_value=0.2, allow_nan=False,
                 allow_infinity=False)

SMALL_BUCKETS = 16
SMALL_ENTRIES = 4


def _small(seed, fingerprint_bits=8):
    return AutoCuckooFilter(
        num_buckets=SMALL_BUCKETS, entries_per_bucket=SMALL_ENTRIES,
        fingerprint_bits=fingerprint_bits, seed=seed,
    )


def _state(flt: AutoCuckooFilter):
    return (
        flt.total_accesses,
        flt.total_relocations,
        flt.autonomic_deletions,
        flt.valid_count,
        flt._lcg,
        flt._fps,
        flt._security,
    )


@pytest.fixture
def engine_env():
    """Restore the ``REPRO_ENGINE`` selection after a test flips it."""
    import os

    prior = os.environ.get("REPRO_ENGINE")
    yield
    if prior is None:
        os.environ.pop("REPRO_ENGINE", None)
    else:
        os.environ["REPRO_ENGINE"] = prior


class TestFromFpp:
    @given(item_num=st.integers(1, 200_000), fpp=fpps)
    @settings(max_examples=150, deadline=None)
    def test_geometry_meets_the_analytic_bound(self, item_num, fpp):
        flt = AutoCuckooFilter.from_fpp(item_num, fpp)
        b = flt.entries_per_bucket
        f = flt.hasher.fingerprint_bits
        # Power-of-two bucket count (required by the XOR alternate).
        assert flt.num_buckets & (flt.num_buckets - 1) == 0
        # The snippet-1 regime split.
        assert b == (2 if fpp >= 0.002 else 4)
        # Analytic fpp at the derived fingerprint width is under target.
        assert theoretical_false_positive_rate(b, f) <= fpp
        # ...and f is minimal: one bit fewer would overshoot (except at
        # the f=1 floor).
        if f > 1:
            assert 2 * b / 2.0 ** (f - 1) > fpp
        # Slots cover the item count at the regime's load factor.
        load = 0.84 if b == 2 else 0.95
        assert flt.capacity >= math.ceil(item_num / load)

    @given(item_num=st.integers(1, 50_000), fpp=fpps, seed=seeds)
    @settings(max_examples=50, deadline=None)
    def test_sizing_is_seed_independent(self, item_num, fpp, seed):
        a = AutoCuckooFilter.from_fpp(item_num, fpp, seed=seed)
        b = AutoCuckooFilter.from_fpp(item_num, fpp, seed=seed + 1)
        assert (a.num_buckets, a.entries_per_bucket,
                a.hasher.fingerprint_bits) == (
            b.num_buckets, b.entries_per_bucket, b.hasher.fingerprint_bits)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AutoCuckooFilter.from_fpp(0, 1e-3)
        with pytest.raises(ValueError):
            AutoCuckooFilter.from_fpp(100, 0.0)
        with pytest.raises(ValueError):
            AutoCuckooFilter.from_fpp(100, 1.0)
        with pytest.raises(ValueError):
            AutoCuckooFilter.from_fpp(100, 1e-12)  # f would exceed 32

    @pytest.mark.parametrize("fpp", [1e-2, 1e-3, 1e-4])
    def test_measured_fpp_meets_target(self, fpp):
        report = fpp_report(20_000, fpp, seed=7, probes=120_000)
        assert isinstance(report, FppReport)
        assert report.analytic_fpp <= fpp
        assert report.meets_target()
        text = report.to_text()
        assert "measured" in text and "analytic" in text

    def test_fpp_1e4_derives_wide_fingerprints(self):
        flt = AutoCuckooFilter.from_fpp(10_000, 1e-4)
        assert flt.hasher.fingerprint_bits == 17
        assert flt._alt_xor is None  # the f > 16 table gate


class TestStorageOps:
    @given(seed=seeds, batch=st.lists(keys, min_size=1, max_size=120))
    @settings(max_examples=100, deadline=None)
    def test_batched_ops_equal_scalar_loops(self, seed, batch):
        scalar = _small(seed)
        batched = _small(seed)
        fresh = sum(1 for key in batch if scalar.insert(key))
        assert batched.insert_many(batch) == fresh
        assert _state(scalar) == _state(batched)
        hits = sum(1 for key in batch if scalar.query(key))
        assert batched.query_many(batch) == hits
        assert _state(scalar) == _state(batched)
        removed = sum(1 for key in batch if scalar.delete(key))
        assert batched.delete_many(batch) == removed
        assert _state(scalar) == _state(batched)

    @given(seed=seeds, batch=st.lists(keys, min_size=1, max_size=60,
                                      unique=True))
    @settings(max_examples=100, deadline=None)
    def test_no_false_negatives_and_delete_purges(self, seed, batch):
        flt = _small(seed)
        flt.insert_many(batch)
        if flt.autonomic_deletions == 0:
            assert flt.query_many(batch) == len(batch)
        count = flt.valid_count
        removed = flt.delete_many(batch)
        assert flt.valid_count == count - removed
        # Every resident key's fingerprint had at least one match.
        if flt.autonomic_deletions == 0:
            assert removed == count

    @given(seed=seeds, key=keys)
    @settings(max_examples=100, deadline=None)
    def test_insert_is_idempotent_on_presence(self, seed, key):
        flt = _small(seed)
        assert flt.insert(key)
        assert not flt.insert(key)
        assert flt.valid_count == 1
        assert flt.query(key)
        assert flt.delete(key)
        assert not flt.delete(key)
        assert flt.valid_count == 0


class TestSerialization:
    @given(seed=seeds,
           ops=st.lists(keys, min_size=1, max_size=150),
           tail=st.lists(keys, min_size=1, max_size=80))
    @settings(max_examples=75, deadline=None)
    def test_round_trip_and_rng_lockstep(self, seed, ops, tail):
        original = _small(seed)
        # A mixed stream: monitor accesses (drive the kick-walk LCG and
        # Security counters) plus storage ops.
        for i, key in enumerate(ops):
            if i % 3 == 0:
                original.insert(key)
            elif i % 3 == 1:
                original.access(key)
            else:
                original.delete(key)
        blob = original.to_bytes()
        restored = AutoCuckooFilter.from_bytes(blob)
        assert _state(restored) == _state(original)
        assert restored.to_bytes() == blob
        # RNG lockstep: identical further op streams keep the twins
        # bit-identical (the serialized LCG state is live, not a copy).
        for key in tail:
            assert original.access(key) == restored.access(key)
        assert _state(restored) == _state(original)
        assert restored.to_bytes() == original.to_bytes()

    def test_from_bytes_rejects_corrupt_blobs(self):
        flt = _small(3)
        flt.insert_many(range(20))
        blob = flt.to_bytes()
        with pytest.raises(ValueError):
            AutoCuckooFilter.from_bytes(b"XXXX" + blob[4:])
        with pytest.raises(ValueError):
            AutoCuckooFilter.from_bytes(blob[:-1])

    @pytest.mark.parametrize("corruption", [
        "wide_fingerprint", "security_above_threshold",
        "security_on_empty_slot", "valid_count_mismatch",
    ])
    def test_from_bytes_rejects_invalid_rows(self, corruption):
        """Blobs of valid length whose rows no filter can reach are
        refused before install — a fingerprint past f bits would
        otherwise index past the alternate-bucket table on the next
        kick walk (out of bounds under the C kernel)."""
        import struct

        flt = _small(5)
        flt.insert_many(range(40))
        blob = bytearray(flt.to_bytes())
        header = struct.calcsize("<4sHHIIIIIQQQQQQ")
        entries = SMALL_BUCKETS * SMALL_ENTRIES
        fps = array("I", blob[header:header + 4 * entries])
        sec_at = header + 4 * entries
        full = next(i for i, fp in enumerate(fps) if fp)
        empty = next(i for i, fp in enumerate(fps) if not fp)
        valid_count_at = struct.calcsize("<4sHHIIIIIQQ")
        if corruption == "wide_fingerprint":
            fps[full] = 1 << 8
            blob[header:sec_at] = fps.tobytes()
        elif corruption == "security_above_threshold":
            blob[sec_at + full] = flt.security_threshold + 1
        elif corruption == "security_on_empty_slot":
            blob[sec_at + empty] = 1
        else:
            struct.pack_into("<Q", blob, valid_count_at, flt.valid_count + 1)
        with pytest.raises(ValueError):
            AutoCuckooFilter.from_bytes(bytes(blob))

    @given(data=st.data(), seed=seeds,
           inserted=st.lists(keys, max_size=60),
           fingerprint_bits=st.sampled_from([4, 8, 16, 17]),
           probes=st.lists(keys, min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_from_bytes_fuzz(self, data, seed, inserted, fingerprint_bits,
                             probes):
        """Mutated, truncated and extended blobs: ``from_bytes`` either
        refuses with ValueError or yields a filter that serializes
        canonically and behaves identically — queries, then inserts
        with their kick walks — under the reference loops and the C
        batch kernels."""
        flt = _small(seed, fingerprint_bits)
        flt.insert_many(inserted)
        blob = bytearray(flt.to_bytes())
        # Half the byte mutations hit the header fields past the
        # geometry (max_kicks, secThr, seed, LCG, counters), which
        # leave the length consistent; the rest land anywhere.
        import struct

        header = struct.calcsize("<4sHHIIIIIQQQQQQ")
        positions = st.one_of(st.integers(20, header - 1),
                              st.integers(0, len(blob) - 1))
        for pos, value in data.draw(st.lists(
                st.tuples(positions, st.integers(0, 255)), max_size=6)):
            blob[pos] = value
        resize = data.draw(st.sampled_from(["keep"] * 4 + ["cut", "grow"]))
        if resize == "cut":
            del blob[data.draw(st.integers(0, len(blob) - 1)):]
        elif resize == "grow":
            blob += data.draw(st.binary(min_size=1, max_size=3))
        blob = bytes(blob)
        try:
            restored = AutoCuckooFilter.from_bytes(blob)
        except ValueError:
            return
        # Canonical: everything but the (ignored) flags field survives.
        assert restored.to_bytes() == blob[:6] + bytes(2) + blob[8:]
        expected = (restored.query_many(probes),
                    restored.insert_many(probes))
        if "c" in available_engines():
            with pytest.MonkeyPatch.context() as mp:
                mp.setenv("REPRO_ENGINE", "c")
                twin = AutoCuckooFilter.from_bytes(blob)
                batch = twin.engine_batch()
                assert (batch.query_many(probes),
                        batch.insert_many(probes)) == expected
                assert twin.to_bytes() == restored.to_bytes()

    def test_instrumented_filters_refuse_serialization(self):
        flt = AutoCuckooFilter(
            num_buckets=SMALL_BUCKETS, entries_per_bucket=SMALL_ENTRIES,
            fingerprint_bits=8, seed=1, instrument=True,
        )
        with pytest.raises(ValueError):
            flt.to_bytes()


class TestWideFingerprintRegression:
    """f = 17: no ``_alt_xor`` table; every surface must take the
    inline-splitmix path and agree with a scalar twin."""

    @given(seed=seeds, batch=st.lists(keys, min_size=1, max_size=80))
    @settings(max_examples=50, deadline=None)
    def test_storage_ops_at_f17(self, seed, batch):
        scalar = _small(seed, fingerprint_bits=17)
        batched = _small(seed, fingerprint_bits=17)
        assert scalar._alt_xor is None
        fresh = sum(1 for key in batch if scalar.insert(key))
        assert batched.insert_many(batch) == fresh
        hits = sum(1 for key in batch if scalar.query(key))
        assert batched.query_many(batch) == hits
        removed = sum(1 for key in batch if scalar.delete(key))
        assert batched.delete_many(batch) == removed
        assert _state(scalar) == _state(batched)

    @given(seed=seeds, sequence=st.lists(keys, min_size=1, max_size=80))
    @settings(max_examples=50, deadline=None)
    def test_access_many_at_f17(self, seed, sequence):
        looped = _small(seed, fingerprint_bits=17)
        batched = _small(seed, fingerprint_bits=17)
        threshold = looped.security_threshold
        captures = sum(
            1 for key in sequence if looped.access(key) >= threshold
        )
        assert batched.access_many(sequence) == captures
        assert _state(looped) == _state(batched)

    def test_serialization_at_f17(self):
        flt = _small(11, fingerprint_bits=17)
        flt.insert_many(range(100))
        restored = AutoCuckooFilter.from_bytes(flt.to_bytes())
        assert _state(restored) == _state(flt)


class TestEngineBatchSeam:
    @pytest.mark.parametrize(
        "engine", [e for e in ("python", "specialized", "c")
                   if e in available_engines()]
    )
    def test_batch_views_are_state_identical(self, engine, engine_env):
        set_engine(engine)
        reference = _small(21)
        flt = _small(21)
        batch = filter_batch(flt)
        if engine == "c":
            assert batch is flt and flt._c_state is not None
        elif engine == "specialized":
            assert isinstance(batch, SpecializedFilterBatch)
        payload = array("Q", (k * 2654435761 % (1 << 40)
                              for k in range(4000)))
        assert batch.insert_many(payload) == reference.insert_many(payload)
        assert batch.query_many(payload) == reference.query_many(payload)
        threshold = reference.security_threshold
        captures = sum(
            1 for key in payload if reference.access(key) >= threshold
        )
        assert batch.access_many(payload) == captures
        assert batch.delete_many(payload) == reference.delete_many(payload)
        if engine == "c":
            flt._sync_rows_from_c()
        assert _state(flt) == _state(reference)
        assert flt.to_bytes() == reference.to_bytes()

    def test_wide_fingerprints_fall_back_quietly(self, engine_env):
        if "c" not in available_engines():
            pytest.skip("no C toolchain")
        set_engine("c")
        flt = _small(5, fingerprint_bits=17)
        batch = filter_batch(flt)
        # The C backend refuses f > 16; the seam must hand back a
        # working view, not crash.
        assert batch.insert_many(range(100)) >= 1
        assert flt._c_state is None

    def test_c_batch_accepts_plain_lists(self, engine_env):
        if not c_backend.available():
            pytest.skip("no C toolchain")
        set_engine("c")
        flt = _small(9)
        batch = filter_batch(flt)
        listed = [k * 7 for k in range(500)]
        twin = _small(9)
        assert batch.insert_many(listed) == twin.insert_many(listed)
        flt._sync_rows_from_c()
        assert _state(flt) == _state(twin)
