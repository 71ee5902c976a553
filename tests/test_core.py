import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from canids.core import (
    CanFrame,
    AttackClass,
    LabelSpace,
    TrafficLog,
    arbitration_winner,
    id_bits,
    id_bits_matrix,
    id_from_bits,
    road_label_space,
    hcrl_label_space,
    ivn_label_space,
)


def frame(can_id=0x100, ts_us=0, data=b"", extended=False, channel="can0"):
    return CanFrame(timestamp_us=ts_us, channel=channel, can_id=can_id, data=data, extended=extended)


class TestCanFrame:
    def test_valid_standard(self):
        f = frame(can_id=0x0BA, ts_us=1040000000000682, data=bytes.fromhex("04B7EC04000602C8"))
        assert f.dlc == 8
        assert f.timestamp == 1040000000.000682
        assert f.id_format == "standard"

    def test_standard_id_range(self):
        frame(can_id=0x7FF)
        with pytest.raises(ValueError):
            frame(can_id=0x800)

    def test_extended_id_range(self):
        frame(can_id=0x1FFFFFFF, extended=True)
        with pytest.raises(ValueError):
            frame(can_id=0x20000000, extended=True)

    def test_dlc_limits(self):
        frame(data=b"\x00" * 8)
        with pytest.raises(ValueError):
            frame(data=b"\x00" * 9)

    def test_negative_timestamp(self):
        with pytest.raises(ValueError):
            frame(ts_us=-1)


class TestLabels:
    def test_normal_convention(self):
        with pytest.raises(ValueError):
            AttackClass("Normal", is_attack=True)
        with pytest.raises(ValueError):
            AttackClass("DoS Attack", is_attack=False)

    def test_builtin_spaces(self):
        assert len(road_label_space()) == 12  # 11 attacks + Normal
        assert len(hcrl_label_space()) == 5
        assert len(ivn_label_space()) == 4

    def test_unique_names(self):
        space = LabelSpace(["A"])
        with pytest.raises(ValueError):
            space.register("A")

    def test_normal_always_present(self):
        space = LabelSpace()
        assert "Normal" in space
        assert not space.get("Normal").is_attack


class TestTrafficLog:
    def test_order_invariant(self):
        TrafficLog(frames=(frame(ts_us=1), frame(ts_us=1), frame(ts_us=2)))
        with pytest.raises(ValueError):
            TrafficLog(frames=(frame(ts_us=2), frame(ts_us=1)))

    def test_empty_log_with_label_space_is_labeled(self):
        log = TrafficLog((), LabelSpace(["A"]))
        assert log.is_labeled
        assert log.labels() == []
        assert not TrafficLog(()).is_labeled


class TestIdBits:
    def test_reference_id_bit_expansion(self):
        # 0x0BA from the candump format example: 18 pad zeros + 000 1011 1010
        bits = id_bits(frame(can_id=0x0BA))
        assert bits.shape == (29,)
        expected = [0] * 18 + [0, 0, 0, 1, 0, 1, 1, 1, 0, 1, 0]
        assert bits.tolist() == expected

    def test_zero_identity(self):
        assert id_bits(frame(can_id=0)).tolist() == [0] * 29

    def test_saturation(self):
        bits = id_bits(frame(can_id=0x1FFFFFFF, extended=True))
        assert bits.tolist() == [1] * 29

    @given(st.integers(min_value=0, max_value=(1 << 29) - 1))
    def test_roundtrip(self, can_id):
        f = frame(can_id=can_id, extended=True)
        assert id_from_bits(id_bits(f)) == can_id

    @given(
        st.integers(min_value=0, max_value=(1 << 29) - 1),
        st.integers(min_value=0, max_value=(1 << 29) - 1),
    )
    def test_injective(self, a, b):
        ba = id_bits(frame(can_id=a, extended=True))
        bb = id_bits(frame(can_id=b, extended=True))
        assert (ba.tolist() == bb.tolist()) == (a == b)

    def test_matrix_matches_scalar(self):
        ids = [0, 0x0BA, 0x7FF, 0x1FFFFFFF, 12345678]
        mat = id_bits_matrix(ids)
        for row, i in zip(mat, ids):
            assert row.tolist() == id_bits(frame(can_id=i, extended=True)).tolist()
        assert mat.dtype == np.uint8


class TestArbitration:
    def test_dominant_id_wins(self):
        contenders = [frame(can_id=0x0BA, ts_us=5), frame(can_id=0x000, ts_us=9)]
        assert arbitration_winner(contenders).can_id == 0x000

    def test_singleton(self):
        only = frame(can_id=0x7FF)
        assert arbitration_winner([only]) is only

    def test_tie_break_by_time(self):
        late = frame(can_id=0x100, ts_us=2_000_000)
        early = frame(can_id=0x100, ts_us=1_000_000)
        assert arbitration_winner([late, early]) is early

    def test_empty_set(self):
        with pytest.raises(ValueError, match="empty arbitration set"):
            arbitration_winner([])

    @given(st.lists(st.integers(min_value=0, max_value=0x7FF), min_size=1, max_size=20))
    def test_winner_has_minimal_id(self, ids):
        frames = [frame(can_id=i, ts_us=k) for k, i in enumerate(ids)]
        winner = arbitration_winner(frames)
        assert all(winner.can_id <= f.can_id for f in frames)
