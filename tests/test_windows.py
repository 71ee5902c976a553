import io
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from canids import core
from canids.core import _BLOCK_ROWS, CanFrame, LabelSpace, LabeledFrame, TrafficLog, id_bits
from canids.windows import (
    BitGridSet,
    IdSequenceSet,
    build_bit_grids,
    build_id_sequences,
    load_bit_grids,
    load_id_sequences,
    save_bit_grids,
    save_id_sequences,
    window_count,
)

SPACE = LabelSpace(attack_names=("Attack",))


def make_log(n, attack_indices=()):
    attack_indices = set(attack_indices)
    frames = tuple(
        LabeledFrame(
            CanFrame(i * 1000, "can0", i % 0x700, bytes([i % 256])),
            SPACE.get("Attack") if i in attack_indices else SPACE.get("Normal"),
        )
        for i in range(n)
    )
    return TrafficLog(frames, label_space=SPACE)


class TestWindowCount:
    @pytest.mark.parametrize("n", [29, 30, 58, 100, 1000])
    @pytest.mark.parametrize("step", [1, 29])
    def test_grid_count_formula(self, n, step):
        got = len(build_bit_grids(make_log(n), window=29, step=step))
        assert got == (n - 29) // step + 1
        assert got == window_count(n, 29, step)

    def test_known_values(self):
        assert len(build_bit_grids(make_log(58), step=29)) == 2
        assert len(build_bit_grids(make_log(58), step=1)) == 30

    def test_sequence_count(self):
        assert len(build_id_sequences(make_log(16))) == 1
        assert len(build_id_sequences(make_log(100))) == 85

    def test_short_log_empty(self, caplog):
        out = build_bit_grids(make_log(10))
        assert len(out) == 0
        assert any("shorter than window" in r.message for r in caplog.records)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            build_bit_grids(make_log(30), window=0)
        with pytest.raises(ValueError):
            build_bit_grids(make_log(30), step=0)

    @given(
        n=st.integers(0, 400),
        window=st.integers(1, 40),
        step=st.integers(1, 40),
    )
    def test_count_property(self, n, window, step):
        assert window_count(n, window, step) == (
            0 if n < window else (n - window) // step + 1
        )


class TestGridContent:
    def test_rows_are_id_bits(self):
        log = make_log(60)
        out = build_bit_grids(log, step=29)
        frames = log.can_frames()
        for g in range(len(out)):
            start = int(out.starts[g])
            for i in range(out.window):
                assert np.array_equal(out.grids[g, i], id_bits(frames[start + i]))

    def test_all_normal_label_zero(self):
        out = build_bit_grids(make_log(58), step=29)
        assert out.labels.tolist() == [0, 0]

    def test_attack_at_last_position(self):
        out = build_bit_grids(make_log(29, attack_indices=[28]), step=29)
        assert out.labels.tolist() == [1]

    def test_any_attack_rule(self):
        out = build_bit_grids(make_log(100, attack_indices=[40]), step=1)
        starts = out.starts
        expected = ((starts <= 40) & (40 <= starts + 28)).astype(np.uint8)
        assert np.array_equal(out.labels, expected)

    def test_boundary_straddle(self):
        # An attack pair at indices 28 and 29 straddles the step-29 grid
        # boundary: each coarse grid sees one frame, while some dense
        # grid contains both.
        log = make_log(58, attack_indices=[28, 29])
        attack = np.array([lf.label.is_attack for lf in log])

        def per_window_attacks(out):
            return [int(attack[s : s + out.window].sum()) for s in out.starts]

        coarse = build_bit_grids(log, step=29)
        assert max(per_window_attacks(coarse)) == 1
        dense = build_bit_grids(log, step=1)
        assert max(per_window_attacks(dense)) == 2
        assert coarse.labels.tolist() == [1, 1]

    def test_attack_always_covered_step_one(self):
        log = make_log(64, attack_indices=[5])
        out = build_bit_grids(log, step=1)
        assert out.labels.sum() >= 1


class TestSequences:
    def test_overlap_step_one(self):
        out = build_id_sequences(make_log(20), window=16, step=1)
        for g in range(len(out) - 1):
            assert np.array_equal(out.ids[g, 1:], out.ids[g + 1, :-1])

    def test_labels(self):
        out = build_id_sequences(make_log(20, attack_indices=[0]), window=16)
        assert out.labels.tolist() == [1] + [0] * 4


def shifted_id_bits(ids):
    """The shift formula id_bits_matrix used before it unpacked bytes."""
    arr = np.asarray(ids, dtype=np.uint32)
    shifts = np.arange(28, -1, -1, dtype=np.uint32)
    return ((arr[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def log_of_ids(ids, attack_indices=()):
    frames = tuple(
        LabeledFrame(CanFrame(i * 1000, "can0", can_id, b"", extended=can_id > 0x7FF),
                     SPACE.get("Attack") if i in attack_indices else SPACE.get("Normal"))
        for i, can_id in enumerate(ids)
    )
    return TrafficLog(frames, label_space=SPACE)


class TestWindowViews:
    """The builders take their windows from a sliding-window view; the
    index-matrix gathers they replaced are the oracles."""

    @staticmethod
    def index_matrix(n, window, step):
        starts = np.arange(0, n - window + 1, step) if n >= window else np.zeros(0, dtype=int)
        return starts, starts[:, None] + np.arange(window)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(0, (1 << 29) - 1), max_size=40), st.integers(1, 6), st.data())
    def test_windows_match_index_gather(self, ids, window, data):
        step = data.draw(st.integers(1, window + 1))
        log = log_of_ids(ids, attack_indices={len(ids) // 2})
        can_id = log.can_id.astype(np.int64)
        starts, rows = self.index_matrix(len(ids), window, step)
        seqs = build_id_sequences(log, window=window, step=step)
        grids = build_bit_grids(log, window=window, step=step)
        assert seqs.ids.shape == grids.grids.shape[:2] == (len(starts), window)
        assert np.array_equal(seqs.ids, can_id[rows]) and seqs.ids.dtype == np.int64
        assert np.array_equal(grids.grids, shifted_id_bits(log.can_id)[rows])
        assert np.array_equal(seqs.starts, starts) and np.array_equal(grids.starts, starts)

    @pytest.mark.parametrize("n", [0, 3, 16, 40])
    def test_sequence_ids_are_read_only(self, n):
        seqs = build_id_sequences(make_log(n), window=16)
        assert not seqs.ids.flags.writeable
        with pytest.raises(ValueError):
            seqs.ids[...] = 0

    def test_grids_are_their_own_array(self):
        grids = build_bit_grids(make_log(90), step=29)
        assert grids.grids.flags.writeable and grids.grids.flags.c_contiguous


class TestPersistence:
    def test_grid_roundtrip(self):
        out = build_bit_grids(make_log(120, attack_indices=[30, 31, 90]), step=1)
        gbuf, lbuf = io.BytesIO(), io.BytesIO()
        save_bit_grids(out, gbuf, lbuf)
        gbuf.seek(0), lbuf.seek(0)
        back = load_bit_grids(gbuf, lbuf)
        assert np.array_equal(back.grids, out.grids)
        assert np.array_equal(back.labels, out.labels)

    def test_grid_record_size(self):
        out = build_bit_grids(make_log(58), step=29)
        gbuf, lbuf = io.BytesIO(), io.BytesIO()
        save_bit_grids(out, gbuf, lbuf)
        per_grid = (29 * 29 + 7) // 8
        assert len(gbuf.getvalue()) == 16 + 2 * per_grid
        assert len(lbuf.getvalue()) == 4 + 2

    def test_grid_bad_magic(self):
        with pytest.raises(ValueError, match="bit-grid"):
            load_bit_grids(io.BytesIO(b"nope" + b"\x00" * 12), io.BytesIO(b"\x00" * 4))

    def test_grid_truncated(self):
        out = build_bit_grids(make_log(58), step=29)
        gbuf, lbuf = io.BytesIO(), io.BytesIO()
        save_bit_grids(out, gbuf, lbuf)
        clipped = io.BytesIO(gbuf.getvalue()[:-5])
        lbuf.seek(0)
        with pytest.raises(ValueError, match="truncated"):
            load_bit_grids(clipped, lbuf)

    def test_label_count_mismatch(self):
        out = build_bit_grids(make_log(58), step=29)
        gbuf, lbuf = io.BytesIO(), io.BytesIO()
        save_bit_grids(out, gbuf, lbuf)
        gbuf.seek(0)
        bad = io.BytesIO(np.array([9], dtype="<u4").tobytes() + b"\x00" * 9)
        with pytest.raises(ValueError, match="count"):
            load_bit_grids(gbuf, bad)

    def test_sequence_roundtrip(self):
        out = build_id_sequences(make_log(40, attack_indices=[17]))
        buf = io.StringIO()
        save_id_sequences(out, buf)
        back = load_id_sequences(io.StringIO(buf.getvalue()))
        assert np.array_equal(back.ids, out.ids)
        assert np.array_equal(back.labels, out.labels)
        assert np.array_equal(back.starts, out.starts)

    @pytest.mark.parametrize("row", ["0,1_0,6,0", "0, 12 ,6,0", "0,\u0661\u0662,6,0", "0,5,6,300",
                                     "0,5,6,-1", "0,99999999999999999999,6,0", "x,5,6,0"])
    def test_sequence_cells_the_writer_never_writes_rejected(self, row):
        text = f"start,id0,id1,label\n0,5,6,0\n{row}\n"
        with pytest.raises(ValueError, match=r"data row 2: "):
            load_id_sequences(io.StringIO(text))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_every_written_sequence_file_loads(self, data):
        n, window = data.draw(st.integers(0, 12)), data.draw(st.integers(1, 20))
        seqs = IdSequenceSet(
            ids=data.draw(arrays(np.int64, (n, window), elements=st.integers(0, 2**29 - 1))),
            labels=data.draw(arrays(np.uint8, n, elements=st.integers(0, 1))),
            starts=data.draw(st.none() | arrays(np.int64, n, elements=st.integers(0, 2**40))))
        back = load_id_sequences(io.StringIO(written(save_id_sequences, seqs)))
        assert np.array_equal(back.ids, seqs.ids) and back.ids.shape == (n, window)
        assert np.array_equal(back.labels, seqs.labels) and back.labels.dtype == np.uint8
        assert np.array_equal(back.starts, np.full(n, -1) if seqs.starts is None else seqs.starts)

    def test_sequence_bad_header(self):
        with pytest.raises(ValueError, match="id-sequence"):
            load_id_sequences(io.StringIO("a,b\n"))

    def test_empty_set_roundtrip(self):
        out = build_bit_grids(make_log(5))
        gbuf, lbuf = io.BytesIO(), io.BytesIO()
        save_bit_grids(out, gbuf, lbuf)
        gbuf.seek(0), lbuf.seek(0)
        back = load_bit_grids(gbuf, lbuf)
        assert len(back) == 0
        assert isinstance(back, BitGridSet)


def reference_save_id_sequences(seqs, stream):
    """The per-cell writer that save_id_sequences replaced, kept as its oracle."""
    header = ["start"] + [f"id{i}" for i in range(seqs.window)] + ["label"]
    stream.write(",".join(header) + "\n")
    starts = seqs.starts if seqs.starts is not None else np.full(len(seqs), -1, dtype=np.int64)
    for g in range(len(seqs)):
        row = [str(int(starts[g]))]
        row.extend(str(int(v)) for v in seqs.ids[g])
        row.append(str(int(seqs.labels[g])))
        stream.write(",".join(row) + "\n")


def reference_save_bit_grids(grids, grid_stream, label_stream):
    """The per-grid writer that save_bit_grids replaced, kept as its oracle."""
    header = np.array([1, len(grids), grids.window], dtype="<u4")
    grid_stream.write(b"IDBG" + header.tobytes())
    for g in range(len(grids)):
        grid_stream.write(np.packbits(grids.grids[g].reshape(-1)).tobytes())
    label_stream.write(np.array([len(grids)], dtype="<u4").tobytes())
    label_stream.write(grids.labels.astype(np.uint8).tobytes())


def written(writer, *args):
    buf = io.StringIO()
    writer(*args, buf)
    return buf.getvalue()


@st.composite
def id_sequence_sets(draw, max_rows=12):
    n = draw(st.integers(0, max_rows))
    window = draw(st.integers(1, 5))
    ids = draw(arrays(np.int64, (n, window)))
    labels = draw(arrays(np.uint8, n))
    starts = draw(st.none() | arrays(np.int64, n))
    return IdSequenceSet(ids=ids, labels=labels, starts=starts)


@st.composite
def int64_cells(draw, shape):
    """Integer cells the encoder writes as a dictionary over a short range or
    as a direct table: runs near zero and near both ends of int64, where
    range arithmetic such as hi + 1 leaves int64, with or without far
    outliers."""
    lo = draw(st.sampled_from([-3, 0, 2**11, 2**63 - 5, -(2**63)]))
    near = st.integers(lo, min(lo + 4, 2**63 - 1))
    far = st.sampled_from([-(2**63), 2**63 - 1]) | st.integers(-(2**63), 2**63 - 1)
    return draw(arrays(np.int64, shape, elements=near | far if draw(st.booleans()) else near))


class TestBitGridRobustness:
    def test_header_sizes_do_not_overflow(self):
        """A header whose count and window multiply past 32 bits is a
        truncated file, read without an overflow or a huge read."""
        header = np.array([1, 2**32 - 1, 2**32 - 1], dtype="<u4").tobytes()
        labels = np.array([2**32 - 1], dtype="<u4").tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="truncated bit-grid file"):
                load_bit_grids(io.BytesIO(b"IDBG" + header), io.BytesIO(labels))

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_mutated_files_raise_only_value_error(self, data):
        """A truncated or mutated grid or label file raises ValueError, or
        loads as grids and labels of matching length."""
        out = build_bit_grids(make_log(60, attack_indices=[30]), step=29)
        gbuf, lbuf = io.BytesIO(), io.BytesIO()
        save_bit_grids(out, gbuf, lbuf)
        files = [bytearray(gbuf.getvalue()), bytearray(lbuf.getvalue())]
        for _ in range(data.draw(st.integers(1, 3))):
            f = files[data.draw(st.integers(0, 1))]
            at = data.draw(st.integers(0, len(f)))
            word = data.draw(st.sampled_from([0, 1, 2, 29, 0xFFFF, 2**31, 2**32 - 1])
                             | st.integers(0, 2**32 - 1)).to_bytes(4, "little")
            f[at:at + data.draw(st.sampled_from([0, 1, 4]))] = data.draw(
                st.sampled_from([word, word[:1], b""]))
        for f in files:
            del f[data.draw(st.integers(0, len(f))):]
        try:
            back = load_bit_grids(io.BytesIO(bytes(files[0])), io.BytesIO(bytes(files[1])))
        except ValueError:
            return
        assert back.grids.shape[0] == back.labels.shape[0]


class TestBlockWriters:
    """The array-at-once writers give exactly the bytes of the per-cell
    loops they replaced."""

    @settings(max_examples=150, deadline=None)
    @given(id_sequence_sets())
    def test_id_sequences_match_reference(self, seqs):
        assert written(save_id_sequences, seqs) == written(reference_save_id_sequences, seqs)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from([1, 2, 3, 5]))
    def test_id_sequences_match_reference_at_any_block_size(self, data, block_rows):
        """Dense and sparse integer columns, with and without starts, in
        blocks of a few rows, against str(int) per cell."""
        n, window = data.draw(st.integers(0, 12)), data.draw(st.integers(1, 4))
        seqs = IdSequenceSet(ids=data.draw(int64_cells((n, window))),
                             labels=data.draw(arrays(np.uint8, n)),
                             starts=data.draw(st.none() | int64_cells(n)))
        with mock.patch.object(core, "_BLOCK_ROWS", block_rows):
            assert written(save_id_sequences, seqs) == written(reference_save_id_sequences, seqs)

    @pytest.mark.parametrize("n", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
    def test_id_sequences_across_block_boundaries(self, n):
        rng = np.random.default_rng(n)
        seqs = IdSequenceSet(
            ids=rng.integers(0, 0x1FFFFFFF, size=(n, 16)),
            labels=rng.integers(0, 2, size=n).astype(np.uint8),
            starts=np.arange(n, dtype=np.int64),
        )
        text = written(save_id_sequences, seqs)
        assert text == written(reference_save_id_sequences, seqs)
        assert text.count("\n") == n + 1

    def test_id_sequences_without_starts_write_minus_one(self):
        seqs = IdSequenceSet(ids=np.array([[5, 6]]), labels=np.array([1], dtype=np.uint8))
        assert written(save_id_sequences, seqs) == "start,id0,id1,label\n-1,5,6,1\n"

    def test_empty_id_sequences_write_header_only(self):
        seqs = build_id_sequences(make_log(3), window=16)
        assert written(save_id_sequences, seqs) == written(reference_save_id_sequences, seqs)
        assert written(save_id_sequences, seqs) == "start," + ",".join(
            f"id{i}" for i in range(16)) + ",label\n"

    def test_empty_labeled_log_writes_headers_only(self):
        log = TrafficLog((), LabelSpace(["A"]))
        seqs = build_id_sequences(log, window=2)
        assert written(save_id_sequences, seqs) == "start,id0,id1,label\n"
        assert written(save_id_sequences, seqs) == written(reference_save_id_sequences, seqs)
        grids = build_bit_grids(log)
        new, old = (io.BytesIO(), io.BytesIO()), (io.BytesIO(), io.BytesIO())
        save_bit_grids(grids, *new)
        reference_save_bit_grids(grids, *old)
        assert [b.getvalue() for b in new] == [b.getvalue() for b in old]
        assert len(new[0].getvalue()) == 16

    @pytest.mark.parametrize("n_frames,step", [(5, 29), (29, 29), (120, 1), (100, 7)])
    def test_bit_grids_match_reference(self, n_frames, step):
        grids = build_bit_grids(make_log(n_frames, attack_indices=[3, 40]), step=step)
        new, old = (io.BytesIO(), io.BytesIO()), (io.BytesIO(), io.BytesIO())
        save_bit_grids(grids, *new)
        reference_save_bit_grids(grids, *old)
        assert [b.getvalue() for b in new] == [b.getvalue() for b in old]
