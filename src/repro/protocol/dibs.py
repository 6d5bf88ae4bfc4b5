"""Transparent interception shim (the DIBS stand-in).

The real ReMICSS implementation inserts itself below the transport layer
using the DIBS "bump in the stack" architecture, so *any* IP traffic can be
carried without application changes.  In the simulator the equivalent role
is a framing adapter: arbitrary-length application datagrams are segmented
into fixed-size protocol symbols on the way in and reassembled on the way
out, so applications never see the symbol size.

Frame format inside the symbol stream: each application datagram becomes
``[4-byte length][data]`` and the concatenated stream is cut into chunks of
``symbol_size - 2`` bytes.  Each symbol is ``[2-byte pointer][chunk]``: the
pointer is the offset in the chunk of the first frame that starts there
(0xFFFF if none does), so a reader that lost a symbol can find the next
frame boundary -- the pointer field of an MPEG transport stream.  A flushed
final chunk is zero-padded (a length of zero marks padding, which the
reader skips).

The reader re-sequences symbols by protocol sequence number, which a fresh
node starts at 0.  A lost symbol leaves a gap; later symbols wait in a
stash behind it.  Once the gap is older than the protocol's
``reassembly_timeout`` the receiver has evicted the missing symbol too, so
the reader gives up on it: it drops the partial datagram and resumes at the
next frame that starts in a stashed symbol.
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.protocol.remicss import RemicssNode

_LENGTH = struct.Struct(">I")
_POINTER = struct.Struct(">H")

#: Pointer value of a symbol in which no frame starts.
NO_FRAME_START = 0xFFFF

#: Most symbols stashed behind a gap before it is given up on regardless
#: of its age (a memory bound).
STASH_LIMIT = 64


class DibsInterceptor:
    """Carries arbitrary application datagrams over a ReMICSS node.

    Args:
        node: the protocol node to send through.
        on_datagram: callback invoked with each reassembled application
            datagram on the receive side.

    Raises:
        ValueError: if the node's symbols cannot hold a pointer and data.

    Notes:
        Delivery is sensitive to symbol loss and reordering: symbols are
        re-sequenced by their protocol sequence number, and a gap that
        outlives the reassembly timeout (or the stash limit) drops the
        datagrams it cut through (a best-effort IP-like drop).
    """

    def __init__(
        self,
        node: RemicssNode,
        on_datagram: Optional[Callable[[bytes], None]] = None,
    ):
        self.node = node
        self.engine = node.engine
        self.symbol_size = node.config.symbol_size
        self.chunk_size = self.symbol_size - _POINTER.size
        if not 0 < self.chunk_size <= NO_FRAME_START:
            raise ValueError(
                f"symbol_size must leave 1 to {NO_FRAME_START} bytes after the "
                f"{_POINTER.size}-byte pointer, got {self.symbol_size}"
            )
        self.gap_timeout = node.config.reassembly_timeout
        self._callbacks: List[Callable[[bytes], None]] = []
        if on_datagram is not None:
            self._callbacks.append(on_datagram)
        self._outbuf = b""
        #: Stream offset of ``_outbuf[0]``, and the stream offsets of the
        #: frames that start in ``_outbuf``.
        self._out_offset = 0
        self._frame_starts: Deque[int] = deque()
        self._expected_seq = 0
        #: seq -> (symbol, arrival time) for symbols waiting behind a gap.
        self._stash: Dict[int, Tuple[bytes, float]] = {}
        #: Whether a gap-expiry check is scheduled (always, while stashing).
        self._gap_timer_armed = False
        self._inbuf = b""
        #: False until the reader has found a frame start (again).
        self._synced = False
        self.datagrams_sent = 0
        self.datagrams_delivered = 0
        self.datagrams_corrupted = 0
        node.on_deliver(self._on_symbol)

    def on_datagram(self, callback: Callable[[bytes], None]) -> None:
        """Register a receive callback for reassembled datagrams."""
        self._callbacks.append(callback)

    # -- intercept (send side) ---------------------------------------------------

    def intercept(self, datagram: bytes) -> None:
        """Accept one application datagram and push full symbols out."""
        self.datagrams_sent += 1
        self._frame_starts.append(self._out_offset + len(self._outbuf))
        self._outbuf += _LENGTH.pack(len(datagram)) + datagram
        while len(self._outbuf) >= self.chunk_size:
            self._send_chunk(self._outbuf[: self.chunk_size])

    def flush(self) -> None:
        """Zero-pad and send any buffered partial symbol."""
        if self._outbuf:
            self._send_chunk(self._outbuf)

    def _send_chunk(self, chunk: bytes) -> None:
        end = self._out_offset + len(chunk)
        pointer = NO_FRAME_START
        if self._frame_starts and self._frame_starts[0] < end:
            pointer = self._frame_starts[0] - self._out_offset
            while self._frame_starts and self._frame_starts[0] < end:
                self._frame_starts.popleft()
        self._outbuf = self._outbuf[len(chunk):]
        self._out_offset = end
        self.node.send(_POINTER.pack(pointer) + chunk.ljust(self.chunk_size, b"\0"))

    # -- reinject (receive side) ----------------------------------------------------

    def _on_symbol(self, seq: int, payload: Optional[bytes], delay: float) -> None:
        del delay
        if payload is None:
            return  # synthetic mode carries no data to reassemble
        if seq < self._expected_seq:
            return  # its gap was already given up on; the stream moved past it
        if seq != self._expected_seq:
            self._stash[seq] = (payload, self.engine.now)
            if len(self._stash) > STASH_LIMIT:
                self._resync()
            elif not self._gap_timer_armed:
                self._arm_gap_timer()
            return
        self._consume(payload)
        self._expected_seq += 1
        self._consume_stashed()

    def _consume_stashed(self) -> None:
        while self._expected_seq in self._stash:
            self._consume(self._stash.pop(self._expected_seq)[0])
            self._expected_seq += 1

    def _resync(self) -> None:
        """Give up on the gap at the head: skip to the next stashed symbol."""
        self.datagrams_corrupted += 1
        self._inbuf = b""
        self._synced = False
        self._expected_seq = min(self._stash)
        self._consume_stashed()

    def _gap_deadline(self) -> float:
        # The head gap became visible when the first symbol behind it
        # arrived: the earliest arrival still in the stash.
        return min(arrived for _symbol, arrived in self._stash.values()) + self.gap_timeout

    def _arm_gap_timer(self) -> None:
        self._gap_timer_armed = True
        self.engine.schedule_at(self._gap_deadline(), self._expire_gaps)

    def _expire_gaps(self) -> None:
        """Give up on every gap older than the reassembly timeout."""
        self._gap_timer_armed = False
        while self._stash and self._gap_deadline() <= self.engine.now:
            self._resync()
        if self._stash:
            self._arm_gap_timer()

    def _consume(self, symbol: bytes) -> None:
        (pointer,) = _POINTER.unpack_from(symbol)
        chunk = symbol[_POINTER.size:]
        if pointer == NO_FRAME_START:
            if self._synced:
                self._inbuf += chunk
                self._parse()
            return
        if self._synced:
            # The bytes before the pointer end the frame in progress.
            self._inbuf += chunk[:pointer]
            self._parse()
        # Whatever is left is padding: a new frame starts at the pointer.
        self._inbuf = chunk[pointer:]
        self._synced = True
        self._parse()

    def _parse(self) -> None:
        """Deliver every complete frame at the front of the input buffer."""
        while True:
            if len(self._inbuf) < _LENGTH.size:
                return
            (length,) = _LENGTH.unpack_from(self._inbuf)
            if length == 0:
                # Padding: the rest of this buffer is flush fill.
                self._inbuf = b""
                return
            end = _LENGTH.size + length
            if len(self._inbuf) < end:
                return
            datagram = self._inbuf[_LENGTH.size : end]
            self._inbuf = self._inbuf[end:]
            self.datagrams_delivered += 1
            for callback in self._callbacks:
                callback(datagram)
