"""The line-oriented communication protocol (Figure 4).

Lines arriving from the application that start with the prefix
character (``%`` by default) are Wafe commands; everything else is
passed through to Wafe's stdout.  A command must fit in one line; the
maximum length is a compile-time constant in the paper (64 kB default)
and a constructor argument here.

:class:`LineParser` is the transport-independent core -- the frontend
feeds it whatever bytes arrive on the pipe; it splits lines, enforces
the length limit, and classifies command versus passthrough.  The mass
transfer channel bypasses this parser entirely
(:class:`MassTransferState`).
"""

import collections

DEFAULT_PREFIX = "%"
DEFAULT_MAX_LINE = 64 * 1024


class LineTooLong(Exception):
    """A protocol line exceeded the configured maximum."""


class LineParser:
    """Incremental splitter/classifier for the command channel."""

    def __init__(self, prefix=DEFAULT_PREFIX, max_line=DEFAULT_MAX_LINE):
        self.prefix = prefix
        self.max_line = max_line
        self._buffer = b""
        self._discarding = False  # inside an oversized line, pre-newline
        self.lines_seen = 0
        self.commands_seen = 0
        self.overlong_lines = 0

    def split_lines_tolerant(self, data):
        """Feed raw bytes; returns ``(lines, errors)``.

        An oversized line is reported as a :class:`LineTooLong` in
        ``errors`` and the parser *resynchronizes at the next newline*:
        valid lines before, after, and even interleaved with the
        overflow in the same read are all still returned.
        """
        if isinstance(data, str):
            data = data.encode("utf-8", "replace")
        self._buffer += data
        lines = []
        errors = []
        while True:
            newline = self._buffer.find(b"\n")
            if newline < 0:
                if self._discarding:
                    self._buffer = b""
                elif len(self._buffer) > self.max_line:
                    # The line is already too long and its newline has
                    # not arrived yet: drop what we have and keep
                    # dropping until the next newline.
                    self._buffer = b""
                    self._discarding = True
                    self.overlong_lines += 1
                    errors.append(LineTooLong(
                        "protocol line exceeds %d bytes" % self.max_line))
                break
            raw = self._buffer[:newline]
            self._buffer = self._buffer[newline + 1 :]
            if self._discarding:
                # The tail of an oversized line already reported.
                self._discarding = False
                continue
            if len(raw) > self.max_line:
                self.overlong_lines += 1
                errors.append(LineTooLong(
                    "protocol line exceeds %d bytes" % self.max_line))
                continue
            lines.append(raw.decode("utf-8", "replace"))
        return lines, errors

    def split_lines(self, data):
        """Strict variant: raises the first :class:`LineTooLong`.

        The lines parsed from this feed (the parser has already
        resynchronized) ride along on the exception as ``err.lines``.
        """
        lines, errors = self.split_lines_tolerant(data)
        if errors:
            err = errors[0]
            err.lines = lines
            raise err
        return lines

    def classify(self, line):
        """One line -> ("command", body) or ("output", line)."""
        self.lines_seen += 1
        if line.startswith(self.prefix):
            self.commands_seen += 1
            return ("command", line[len(self.prefix):])
        return ("output", line)

    def feed(self, data):
        """Feed raw bytes; returns [("command"|"output", text), ...]."""
        return [self.classify(line) for line in self.split_lines(data)]

    def pending_bytes(self):
        return len(self._buffer)


class OutboundChannel:
    """The transport-independent outbound half of a line channel.

    Both halves of Wafe's process model speak through this machine: the
    stdio :class:`~repro.core.frontend.Frontend` (pipes to a spawned
    backend) and the server's :class:`~repro.server.session.Session`
    (a socket to a connected client) are the same channel over
    different descriptors.  The contract, shared by both:

    * ``send`` never blocks.  Text is coalesced in ``_out_buffer``;
      :meth:`flush` moves it to the wire; bytes the kernel will not
      take right now are parked in the ``_pending`` deque and drained
      by an output-readiness watch on the event core.
    * A peer that stops reading cannot buffer us to death: beyond
      ``high_water`` queued bytes, output is *dropped* with one
      reported overflow per episode (``dropped_bytes`` counts).
    * Frame-granularity pipelining: output batches until a flush
      point (end-of-dispatch frame hook, explicit sync, or the
      :attr:`FLUSH_THRESHOLD` latency bound).

    Subclasses provide the transport: :meth:`_channel_open`,
    :meth:`_channel_write`, :meth:`_channel_dead`, the readiness-watch
    hooks, and the ``high_water`` policy source.
    """

    # How much outbound data may accumulate before we stop deferring
    # to loop idle and write through (bounds latency; roughly one pipe
    # capacity so the write usually completes in one call).
    FLUSH_THRESHOLD = 32768

    def _init_outbound(self):
        self._out_buffer = []
        self._out_buffered_bytes = 0
        self._pending = collections.deque()
        self._pending_bytes = 0
        self._flush_work_id = None
        self._output_id = None
        self._overflowed = False
        self.dropped_bytes = 0
        self.closed = False
        self.stats = self._zero_stats()

    @staticmethod
    def _zero_stats():
        return {
            "sends": 0,          # send() calls (echo lines, replies)
            "pipe_writes": 0,    # successful write() syscalls
            "bytes_written": 0,
            "frame_flushes": 0,  # end-of-dispatch flushes with data
            "sync_points": 0,    # explicit sync-command flushes
        }

    def reset_stats(self):
        self.stats = self._zero_stats()

    # -- the transport contract (subclass responsibilities) ------------

    @property
    def high_water(self):
        """Backpressure limit: total queued outbound bytes allowed."""
        return 1 << 20

    def _channel_open(self):
        """True while the transport can still accept writes."""
        raise NotImplementedError

    def _channel_write(self, chunk):
        """One non-blocking write; returns the byte count, or None on
        EAGAIN.  May raise OSError-family errors for a dead peer."""
        raise NotImplementedError

    def _channel_dead(self):
        """The peer is gone (write raised); outbound state is already
        cleared when this is called."""
        raise NotImplementedError

    def _channel_flushed(self):
        """Called once per drain-to-empty with data written; returns
        False if the transport died during the post-write flush."""
        return True

    def _add_output_watch(self, callback):
        raise NotImplementedError

    def _remove_output_watch(self, watch_id):
        raise NotImplementedError

    def _add_idle_flush(self, callback):
        """Schedule a one-shot idle flush; return an id or None."""
        return None

    def _remove_idle_flush(self, work_id):
        pass

    def _report_overflow(self):
        """One queued-beyond-high-water episode (already counted)."""

    # -- the shared machine ---------------------------------------------

    def queued_bytes(self):
        """Everything waiting to reach the peer."""
        return self._out_buffered_bytes + self._pending_bytes

    def send(self, text):
        """Queue ``text`` for the peer; order is preserved.

        The actual write happens in :meth:`flush` -- scheduled as an
        idle work proc so all the sends fired by one event become a
        single ``write()`` on the descriptor.  Data beyond the
        high-water mark is dropped with a reported error rather than
        buffered without bound (the peer is not reading)."""
        if self.closed or not self._channel_open():
            return
        if self.queued_bytes() + len(text) > self.high_water:
            self.dropped_bytes += len(text)
            if not self._overflowed:
                self._overflowed = True
                self._report_overflow()
            return
        self.stats["sends"] += 1
        self._out_buffer.append(text)
        self._out_buffered_bytes += len(text)
        if self._out_buffered_bytes >= self.FLUSH_THRESHOLD:
            self.flush()
        elif self._flush_work_id is None:
            self._flush_work_id = self._add_idle_flush(self._idle_flush)

    def _idle_flush(self):
        self.flush()
        return True  # one-shot: the work proc removes itself

    def _frame_flush(self):
        """End-of-dispatch flush point: everything the frame's events
        echoed goes out as one write."""
        if self.closed:
            return
        if self._out_buffer:
            self.stats["frame_flushes"] += 1
            self.flush()

    def sync_point(self):
        """An explicit ``sync``: flush now.  Ordering is safe out of
        the box because all output -- echoes, callback replies, and the
        sync itself -- travels one FIFO buffer: everything sent before
        this point reaches the peer before anything sent after it."""
        self.stats["sync_points"] += 1
        self.flush()

    def flush(self):
        """Move queued text to the wire -- as much as the kernel accepts.

        Never blocks: what the kernel will not take right now stays in
        the pending queue and an output watch on the event loop drains
        it as the peer reads."""
        if self._flush_work_id is not None:
            self._remove_idle_flush(self._flush_work_id)
            self._flush_work_id = None
        if self._out_buffer:
            data = "".join(self._out_buffer).encode("utf-8", "replace")
            self._out_buffer = []
            self._out_buffered_bytes = 0
            self._pending.append(data)
            self._pending_bytes += len(data)
        self._write_pending()

    def _write_pending(self):
        if self.closed or not self._channel_open():
            self._clear_outbound()
            return
        wrote_any = False
        while self._pending:
            chunk = self._pending[0]
            try:
                n = self._channel_write(chunk)
            except BlockingIOError as err:
                n = err.characters_written or None
            except (BrokenPipeError, ConnectionResetError, OSError,
                    ValueError):
                self._clear_outbound()
                self._channel_dead()
                return
            if n is None:       # EAGAIN: the descriptor is full
                break
            wrote_any = True
            self.stats["pipe_writes"] += 1
            self.stats["bytes_written"] += n
            self._pending_bytes -= n
            if n < len(chunk):  # partial write: descriptor is now full
                self._pending[0] = chunk[n:]
                break
            self._pending.popleft()
        if self._pending:
            if self._output_id is None:
                self._output_id = self._add_output_watch(self._on_writable)
        else:
            self._cancel_output_watch()
            if self._overflowed:
                self._overflowed = False  # drained: report again next time
            if wrote_any and not self._channel_flushed():
                self._clear_outbound()
                self._channel_dead()

    def _on_writable(self, fd):
        self._write_pending()

    def _cancel_output_watch(self):
        if self._output_id is not None:
            self._remove_output_watch(self._output_id)
            self._output_id = None

    def _clear_outbound(self):
        self._out_buffer = []
        self._out_buffered_bytes = 0
        self._pending.clear()
        self._pending_bytes = 0
        self._cancel_output_watch()
        if self._flush_work_id is not None:
            self._remove_idle_flush(self._flush_work_id)
            self._flush_work_id = None


class MassTransferState:
    """State for one ``setCommunicationVariable`` request.

    Accumulates raw bytes from the mass channel; once ``limit`` bytes
    have arrived the data is stored into the named Tcl variable and the
    completion script runs ("After 100000 bytes are read, the Tcl
    command specified in the last argument will be executed").
    """

    def __init__(self, var_name, limit, completion_script):
        self.var_name = var_name
        self.limit = limit
        self.completion_script = completion_script
        self.received = b""

    def feed(self, data):
        """Returns (payload, leftover) when complete, else None."""
        self.received += data
        if len(self.received) >= self.limit:
            payload = self.received[: self.limit]
            leftover = self.received[self.limit :]
            return payload, leftover
        return None

    @property
    def missing(self):
        return max(0, self.limit - len(self.received))
