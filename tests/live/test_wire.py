"""Wire-format tests: binary framing, uids, handshakes, golden bytes."""

from __future__ import annotations

import asyncio
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.types import ControlMessage, ControlType, Piggyback, Status
from repro.live import wire
from repro.live.wire import (
    MAX_FRAME_BYTES,
    MAX_INCARNATIONS,
    MAX_UID_COUNTER,
    SUPERVISOR,
    FrameSplitter,
    ack_frame,
    ack_frames,
    app_frame,
    check_handshake,
    ctl_frame,
    decode_frame,
    decode_payload,
    encode_frame,
    encode_payload,
    frame_control,
    frame_piggyback,
    hello_frame,
    frame_dst,
    make_uid,
    read_wire,
    recover_frame,
    stop_frame,
    welcome_frame,
)


class TestMakeUid:
    def test_unique_across_pids_incarnations_counters(self):
        seen = set()
        for pid in range(4):
            for inc in range(3):
                for counter in range(1, 5):
                    seen.add(make_uid(pid, inc, counter))
        assert len(seen) == 4 * 3 * 4

    def test_crashed_incarnation_never_collides_with_restart(self):
        # Same pid, same counter, different incarnation: distinct uids.
        assert make_uid(3, 0, 17) != make_uid(3, 1, 17)

    def test_incarnation_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_uid(0, MAX_INCARNATIONS, 1)
        with pytest.raises(ValueError):
            make_uid(0, -1, 1)

    def test_counter_boundaries(self):
        assert make_uid(0, 0, 0) == 0
        top = make_uid(0, 0, MAX_UID_COUNTER - 1)
        assert top == MAX_UID_COUNTER - 1
        # One past the top bleeds into the incarnation bits: rejected.
        with pytest.raises(ValueError, match="counter"):
            make_uid(0, 0, MAX_UID_COUNTER)
        with pytest.raises(ValueError, match="counter"):
            make_uid(0, 0, -1)

    def test_counter_overflow_would_alias_next_incarnation(self):
        # The collision the range check prevents: counter == 2**32 under
        # incarnation 0 is bit-identical to counter 0 under incarnation 1.
        raw = ((0 * MAX_INCARNATIONS + 0) << 32) | MAX_UID_COUNTER
        assert raw == make_uid(0, 1, 0)

    def test_negative_pid_rejected(self):
        with pytest.raises(ValueError, match="pid"):
            make_uid(-1, 0, 1)


def sample_pb(csn=2, stat=Status.TENTATIVE, tent=(0, 2)):
    return Piggyback(csn=csn, stat=stat, tent_set=frozenset(tent))


class TestFrames:
    def test_encode_decode_round_trip(self):
        pb = sample_pb()
        frame = app_frame(0, 1, make_uid(0, 0, 1), 128, pb, epoch=1)
        back = decode_frame(encode_frame(frame))
        assert back == frame
        assert frame_piggyback(back) == pb

    def test_ctl_frame_round_trip(self):
        cm = ControlMessage(ctype=ControlType.CK_REQ, csn=5)
        back = decode_frame(encode_frame(ctl_frame(2, 0, cm, epoch=0)))
        assert frame_control(back) == cm
        assert back["src"] == 2 and back["dst"] == 0

    def test_frame_is_length_prefixed_binary(self):
        data = encode_frame(recover_frame(1, 3))
        # First byte 0x00: MAX_FRAME_BYTES < 2**24 zeroes the length
        # prefix's high byte.
        assert data[0] == 0x00
        (length,) = struct.unpack_from("!I", data)
        assert length == len(data) - 4
        assert decode_frame(data) == recover_frame(1, 3)

    def test_frame_dst_matches_full_decode(self):
        frame = app_frame(3, 7, make_uid(3, 0, 9), 64, sample_pb(), epoch=2)
        data = encode_frame(frame)
        assert frame_dst(data) == 7
        assert decode_frame(data)["dst"] == 7

    def test_rs_key_only_present_when_stamped(self):
        frame = app_frame(0, 1, make_uid(0, 0, 1), 16, sample_pb(), epoch=0)
        assert "rs" not in decode_frame(encode_frame(frame))
        frame["rs"] = make_uid(0, 0, 2)
        assert decode_frame(encode_frame(frame))["rs"] == frame["rs"]

    def test_decode_rejects_non_frame_json(self):
        # JSON bytes are rejected as a frame: "{" reads as version 123.
        with pytest.raises(ValueError, match="truncated"):
            decode_frame(b"[1, 2, 3]\n")
        with pytest.raises(ValueError, match="version"):
            decode_frame(b'{"t":"hello","v":2,"pid":0,"inc":0}\n')

    def test_decode_rejects_truncated_payload(self):
        payload = encode_payload(
            app_frame(0, 1, make_uid(0, 0, 1), 16, sample_pb(), epoch=0))
        with pytest.raises(ValueError, match="truncated"):
            decode_payload(payload[:-3])

    def test_decode_rejects_unknown_binary_version(self):
        payload = bytearray(encode_payload(recover_frame(0, 1)))
        payload[0] = 99  # version byte
        with pytest.raises(ValueError, match="version"):
            decode_payload(bytes(payload))

    def test_encode_rejects_versions_outside_accept_set(self):
        bad = recover_frame(0, 1)
        bad["v"] = 999
        with pytest.raises(ValueError, match="binary-encode"):
            encode_frame(bad)

    def test_oversized_frame_rejected_cleanly(self, monkeypatch):
        # The guard is unreachable through the real constructors (the
        # piggyback caps at 65535 entries, ~256 KiB); shrink the ceiling
        # to prove the failure mode is a ValueError, not a socket death.
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 8)
        with pytest.raises(ValueError, match="MAX_FRAME_BYTES"):
            encode_frame(recover_frame(0, 1))

    def test_oversized_piggyback_rejected_cleanly(self):
        pb = Piggyback(csn=0, stat=Status.NORMAL,
                       tent_set=frozenset(range(0x10000)))
        frame = app_frame(0, 1, make_uid(0, 0, 1), 16, pb, epoch=0)
        with pytest.raises(ValueError, match="tent_set"):
            encode_frame(frame)

    def test_stop_and_recover_shapes(self):
        assert stop_frame()["t"] == "stop"
        rec = recover_frame(epoch=2, seq=4)
        assert (rec["t"], rec["epoch"], rec["seq"]) == ("recover", 2, 4)

    def test_read_wire_checks_the_length_before_reading_the_payload(self):
        # A peer writing text: "{\"t\"" read as a length is ~2 GiB, and
        # the reader must refuse it without waiting for that many bytes.
        class Reader:
            def __init__(self, data):
                self.data, self.asked = data, []

            async def readexactly(self, n):
                self.asked.append(n)
                out, self.data = self.data[:n], self.data[n:]
                return out

        reader = Reader(b'{"t":"hello","v":2,"pid":0,"inc":0}\n')
        assert reader.data[0] == 0x7B
        with pytest.raises(ValueError, match="MAX_FRAME_BYTES"):
            asyncio.run(read_wire(reader))
        assert reader.asked == [4]


#: ``encode_frame`` over one fixed frame of each kind.  The v3 hex is the
#: v2 hex with the version bytes (header and piggyback) set to 0x03, except
#: ``ack``, whose body became a count and an ``rs`` list in v3.
GOLDEN_APP = app_frame(0, 1, make_uid(0, 0, 1), 128, sample_pb(), epoch=1)
GOLDEN_FRAMES = {
    "hello": (hello_frame(3, 1),
              "00000012030100000003ffffffff0000000000000001"),
    "welcome": (welcome_frame(5),
                "0000000e0302ffffffffffffffff00000005"),
    "app": (GOLDEN_APP,
            "0000003203030000000000000001000000010000000000000001000000"
            "80000000000000000003000000020100020000000000000002"),
    "app+rs": (dict(GOLDEN_APP, rs=make_uid(0, 0, 2)),
               "0000003203030000000000000001000000010000000000000001000000"
               "80000000000000000203000000020100020000000000000002"),
    "ctl": (ctl_frame(2, 0, ControlMessage(ControlType.CK_REQ, 5), epoch=0),
            "0000001c03040000000200000000000000000000000000000000030100000005"),
    "ack": (ack_frame(1, 0, [make_uid(1, 0, 7)]),
            "0000001a030500000001000000000000000000000001"
            "0000040000000007"),
    "ack+many": (ack_frame(1, 0, [make_uid(1, 0, 7), make_uid(1, 0, 8),
                                  make_uid(1, 2, 9)]),
                 "0000002a030500000001000000000000000000000003"
                 "0000040000000007" "0000040000000008" "0000040200000009"),
    "recover": (recover_frame(2, 4),
                "000000120306ffffffffffffffff0000000200000004"),
    "stop": (stop_frame(), "0000000e0307ffffffffffffffff00000000"),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_FRAMES))
def test_golden_bytes(kind):
    frame, golden = GOLDEN_FRAMES[kind]
    assert encode_frame(frame).hex() == golden
    assert decode_frame(bytes.fromhex(golden)) == frame


# -- hypothesis round-trip properties ---------------------------------------

pids = st.integers(min_value=0, max_value=63)
epochs = st.integers(min_value=0, max_value=2**32 - 1)
csns = st.integers(min_value=0, max_value=2**32 - 1)
uids = st.builds(make_uid, pids,
                 st.integers(min_value=0, max_value=MAX_INCARNATIONS - 1),
                 st.integers(min_value=0, max_value=MAX_UID_COUNTER - 1))
piggybacks = st.builds(
    Piggyback, csn=csns, stat=st.sampled_from(list(Status)),
    tent_set=st.frozensets(st.integers(min_value=0, max_value=2**32 - 1),
                           max_size=32))
controls = st.builds(ControlMessage, ctype=st.sampled_from(list(ControlType)),
                     csn=csns)

app_frames = st.builds(app_frame, pids, pids, uids,
                       st.integers(min_value=0, max_value=2**32 - 1),
                       piggybacks, epochs)
ctl_frames = st.builds(ctl_frame, pids, pids, controls, epochs)
ack_lists = st.builds(ack_frame, pids, st.one_of(pids, st.just(SUPERVISOR)),
                      st.lists(uids, min_size=1, max_size=64))
hello_frames = st.builds(
    hello_frame, pids,
    st.integers(min_value=0, max_value=MAX_INCARNATIONS - 1))
welcome_frames = st.builds(welcome_frame, epochs)
recover_frames = st.builds(recover_frame, epochs,
                           st.integers(min_value=0, max_value=2**32 - 1))
any_frame = st.one_of(app_frames, ctl_frames, ack_lists, hello_frames,
                      welcome_frames, recover_frames, st.just(stop_frame()))


class TestRoundTripProperties:
    @given(any_frame)
    def test_binary_round_trip_is_exact(self, frame):
        assert decode_frame(encode_frame(frame)) == frame

    @given(app_frames, uids)
    def test_rs_stamped_round_trip(self, frame, rs):
        frame = dict(frame, rs=max(rs, 1))  # rs 0 encodes as "absent"
        assert decode_frame(encode_frame(frame)) == frame

    @given(app_frames)
    def test_payload_never_exceeds_frame_ceiling(self, frame):
        assert len(encode_payload(frame)) <= MAX_FRAME_BYTES


class TestAck:
    def test_one_and_many_rs_round_trip(self):
        for rs in ([make_uid(2, 0, 1)],
                   [make_uid(2, 0, c) for c in range(1, 1001)]):
            frame = ack_frame(2, 0, rs)
            assert decode_frame(encode_frame(frame)) == frame
            assert decode_frame(encode_frame(frame))["rs"] == rs

    def test_count_past_the_body_is_a_truncated_payload(self):
        payload = bytearray(encode_payload(ack_frame(1, 0, [5])))
        payload[14:18] = (2**32 - 1).to_bytes(4, "big")     # the count
        with pytest.raises(ValueError, match="truncated"):
            decode_payload(bytes(payload))

    def test_short_list_is_one_frame(self):
        rs = [make_uid(1, 0, c) for c in range(1, 100)]
        assert ack_frames(1, 0, rs) == [ack_frame(1, 0, rs)]

    def test_list_past_the_frame_ceiling_is_split(self, monkeypatch):
        # Room for three rs per frame: 14-byte header, 4-byte count, 3 x 8.
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 14 + 4 + 3 * 8)
        rs = [make_uid(1, 0, c) for c in range(1, 8)]
        frames = ack_frames(1, 0, rs)
        assert [f["rs"] for f in frames] == [rs[0:3], rs[3:6], rs[6:7]]
        for frame in frames:
            data = encode_frame(frame)      # each one fits
            assert decode_frame(data) == frame


def _stream(frames):
    return b"".join(encode_frame(f) for f in frames)


class TestFrameSplitter:
    @given(st.lists(any_frame, max_size=12), st.data())
    def test_any_chunking_yields_the_same_frames(self, frames, data):
        stream = _stream(frames)
        cuts = sorted(data.draw(st.lists(
            st.integers(min_value=0, max_value=len(stream)), max_size=10)))
        splitter = FrameSplitter()
        out = []
        for lo, hi in zip([0] + cuts, cuts + [len(stream)]):
            out.extend(splitter.feed(stream[lo:hi]))
        assert out == [encode_frame(f) for f in frames]
        assert [decode_frame(d) for d in out] == frames

    def test_byte_at_a_time(self):
        frames = [recover_frame(1, 2), ack_frame(0, 1, [5, 6]), stop_frame()]
        splitter = FrameSplitter()
        out = []
        for byte in _stream(frames):
            out.extend(splitter.feed(bytes([byte])))
        assert [decode_frame(d) for d in out] == frames

    def test_oversized_prefix_raises_before_its_payload(self):
        splitter = FrameSplitter()
        good = encode_frame(stop_frame())
        # A complete frame, then a prefix announcing MAX_FRAME_BYTES + 1
        # with no payload behind it: the splitter refuses it at once.
        bad = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(ValueError, match="MAX_FRAME_BYTES"):
            splitter.feed(good + bad)

    def test_oversized_prefix_ends_the_broker_connection(self):
        from repro.live.transport import Broker

        class Writer:
            def write(self, data):
                pass

            async def drain(self):
                pass

            def close(self):
                pass

        class Reader:
            """Hands out the hello, then the oversized prefix, then would
            hand out payload bytes forever."""

            def __init__(self):
                self.reads = 0
                self.chunks = [encode_frame(hello_frame(0, 0)),
                               (MAX_FRAME_BYTES + 1).to_bytes(4, "big")]

            async def readexactly(self, n):
                head = self.chunks[0][:n]
                self.chunks[0] = self.chunks[0][n:]
                if not self.chunks[0]:
                    self.chunks.pop(0)
                return head

            async def read(self, n):
                self.reads += 1
                return self.chunks.pop(0) if self.chunks else b"x" * n

        async def body():
            broker = Broker()
            reader = Reader()
            gone = []
            broker.on_disconnect = gone.append
            await asyncio.wait_for(broker._handle(reader, Writer()), 5.0)
            return reader, broker, gone

        reader, broker, gone = asyncio.run(body())
        assert reader.reads == 1            # no read after the prefix
        assert gone == [0] and broker.connected_pids == []


class TestHandshake:
    def test_hello_welcome_validate(self):
        assert check_handshake(hello_frame(3, 1), "hello")["pid"] == 3
        assert check_handshake(welcome_frame(2), "welcome")["epoch"] == 2

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError, match="expected welcome"):
            check_handshake(hello_frame(0, 0), "welcome")

    def test_version_mismatch_rejected(self):
        bad = hello_frame(0, 0)
        bad["v"] = 999
        with pytest.raises(ValueError, match="wire version"):
            check_handshake(bad, "hello")

