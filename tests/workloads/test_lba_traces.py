"""Tests for the byte-extent to partial-stripe-error adapter."""

import pytest

from repro.workloads import ByteExtentError, extents_to_errors

CHUNK = 32 * 1024


class TestValidation:
    def test_extent_fields(self):
        with pytest.raises(ValueError):
            ByteExtentError(time=-1, disk=0, offset=0, length=1)
        with pytest.raises(ValueError):
            ByteExtentError(time=0, disk=0, offset=0, length=0)
        with pytest.raises(ValueError):
            ByteExtentError(time=0, disk=0, offset=-1, length=1)

    def test_disk_out_of_range(self, tip7):
        ext = ByteExtentError(time=0, disk=99, offset=0, length=1)
        with pytest.raises(ValueError, match="disks"):
            extents_to_errors(tip7, [ext])

    def test_chunk_size(self, tip7):
        with pytest.raises(ValueError):
            extents_to_errors(tip7, [], chunk_size=0)


class TestMapping:
    def test_single_byte_is_one_chunk(self, tip7):
        ext = ByteExtentError(time=1.0, disk=2, offset=5, length=1)
        [err] = extents_to_errors(tip7, [ext], chunk_size=CHUNK)
        assert (err.stripe, err.disk, err.start_row, err.length) == (0, 2, 0, 1)
        assert err.time == 1.0

    def test_extent_rounded_out_to_chunks(self, tip7):
        # bytes [CHUNK/2, 2.5*CHUNK) touch chunks 0, 1, 2
        ext = ByteExtentError(time=0, disk=0, offset=CHUNK // 2, length=2 * CHUNK)
        [err] = extents_to_errors(tip7, [ext], chunk_size=CHUNK)
        assert err.start_row == 0 and err.length == 3

    def test_stripe_boundary_split(self, tip7):
        rows = tip7.rows  # 6
        # chunks rows-1 and rows straddle stripes 0 and 1
        ext = ByteExtentError(
            time=0, disk=1, offset=(rows - 1) * CHUNK, length=2 * CHUNK
        )
        errors = extents_to_errors(tip7, [ext], chunk_size=CHUNK)
        assert len(errors) == 2
        assert errors[0].stripe == 0 and errors[0].start_row == rows - 1
        assert errors[1].stripe == 1 and errors[1].start_row == 0

    def test_overlapping_extents_merge(self, tip7):
        exts = [
            ByteExtentError(time=2.0, disk=0, offset=0, length=CHUNK),
            ByteExtentError(time=1.0, disk=0, offset=CHUNK, length=CHUNK),
        ]
        [err] = extents_to_errors(tip7, exts, chunk_size=CHUNK)
        assert err.length == 2
        assert err.time == 1.0  # earliest detection

    def test_gap_merges_into_contiguous_run(self, tip7):
        """Two extents with a clean chunk between them merge into one
        contiguous run covering the union (paper: co-stripe errors are
        treated as continuous)."""
        exts = [
            ByteExtentError(time=0, disk=0, offset=0, length=CHUNK),
            ByteExtentError(time=0, disk=0, offset=2 * CHUNK, length=CHUNK),
        ]
        [err] = extents_to_errors(tip7, exts, chunk_size=CHUNK)
        assert err.start_row == 0 and err.length == 3

    def test_different_disks_stay_separate(self, tip7):
        exts = [
            ByteExtentError(time=0, disk=0, offset=0, length=CHUNK),
            ByteExtentError(time=0, disk=1, offset=0, length=CHUNK),
        ]
        errors = extents_to_errors(tip7, exts, chunk_size=CHUNK)
        assert len(errors) == 2

    def test_output_feeds_simulator(self, tip7):
        from repro.engine import simulate_cache_trace

        exts = [
            ByteExtentError(time=float(i), disk=i % tip7.num_disks,
                            offset=i * 10 * CHUNK, length=3 * CHUNK)
            for i in range(10)
        ]
        errors = extents_to_errors(tip7, exts, chunk_size=CHUNK)
        res = simulate_cache_trace(tip7, errors, policy="fbf", capacity_blocks=16)
        assert res.requests > 0
