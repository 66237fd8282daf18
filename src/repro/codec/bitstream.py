"""Bit-exact bitstream writer/reader with exponential-Golomb codes.

The entropy layer of the codec substrate.  ``ue``/``se`` are the
unsigned/signed exp-Golomb codes of H.264/HEVC syntax.  Writers and
readers are symmetric: every ``write_*`` has a ``read_*`` that consumes
exactly the same bits, which the round-trip tests verify.
"""

from __future__ import annotations


def ue_bit_length(value: int) -> int:
    """Number of bits of the unsigned exp-Golomb code of ``value >= 0``."""
    if value < 0:
        raise ValueError(f"ue requires non-negative value, got {value}")
    return 2 * (value + 1).bit_length() - 1


def se_bit_length(value: int) -> int:
    """Number of bits of the signed exp-Golomb code of ``value``."""
    mapped = 2 * value - 1 if value > 0 else -2 * value
    return ue_bit_length(mapped)


class BitWriter:
    """Accumulates bits most-significant-first into bytes."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._accumulator = 0
        self._bit_count = 0
        self.bits_written = 0

    def write_bit(self, bit: int) -> None:
        self._accumulator = (self._accumulator << 1) | (bit & 1)
        self._bit_count += 1
        self.bits_written += 1
        if self._bit_count == 8:
            self._bytes.append(self._accumulator)
            self._accumulator = 0
            self._bit_count = 0

    def write_bits(self, value: int, count: int) -> None:
        """Write ``count`` bits of ``value``, MSB first.

        Batched: the value is spliced into the accumulator whole and
        flushed a byte at a time, instead of looping bit by bit.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if value < 0 or (count < value.bit_length()):
            raise ValueError(f"value {value} does not fit in {count} bits")
        acc = (self._accumulator << count) | value
        n = self._bit_count + count
        self.bits_written += count
        out = self._bytes
        while n >= 8:
            n -= 8
            out.append((acc >> n) & 0xFF)
        self._accumulator = acc & ((1 << n) - 1)
        self._bit_count = n

    def write_ue(self, value: int) -> None:
        """Unsigned exp-Golomb."""
        if value < 0:
            raise ValueError(f"ue requires non-negative value, got {value}")
        code = value + 1
        length = code.bit_length()
        self.write_bits(0, length - 1)  # leading zeros
        self.write_bits(code, length)

    def write_se(self, value: int) -> None:
        """Signed exp-Golomb (positive maps to odd codes)."""
        mapped = 2 * value - 1 if value > 0 else -2 * value
        self.write_ue(mapped)

    def append_bits(self, data: bytes, nbits: int) -> None:
        """Append the first ``nbits`` bits of ``data``, MSB-first.

        Splices another writer's flushed payload (``data = w.flush()``,
        ``nbits = w.bits_written``) into this stream at the current bit
        position, as if every bit had been written here directly —
        the primitive behind merging per-tile bitstreams.
        """
        if nbits < 0 or nbits > len(data) * 8:
            raise ValueError(f"{nbits} bits not available in {len(data)} bytes")
        full, rem = divmod(nbits, 8)
        if self._bit_count == 0:
            # Byte-aligned fast path: splice whole bytes directly.
            self._bytes.extend(data[:full])
            self.bits_written += full * 8
        else:
            for byte in data[:full]:
                self.write_bits(byte, 8)
        if rem:
            self.write_bits(data[full] >> (8 - rem), rem)

    def flush(self) -> bytes:
        """Byte-align with zero padding and return the stream."""
        while self._bit_count != 0:
            self.write_bit(0)
        return bytes(self._bytes)


class BitReader:
    """Reads bits MSB-first from a byte string."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0  # bit position

    @property
    def bits_remaining(self) -> int:
        return len(self._data) * 8 - self._pos

    def read_bit(self) -> int:
        if self._pos >= len(self._data) * 8:
            raise EOFError("bitstream exhausted")
        byte = self._data[self._pos // 8]
        bit = (byte >> (7 - self._pos % 8)) & 1
        self._pos += 1
        return bit

    def read_bits(self, count: int) -> int:
        value = 0
        for _ in range(count):
            value = (value << 1) | self.read_bit()
        return value

    def read_ue(self) -> int:
        zeros = 0
        while self.read_bit() == 0:
            zeros += 1
            if zeros > 64:
                raise ValueError("malformed exp-Golomb code")
        value = 1
        for _ in range(zeros):
            value = (value << 1) | self.read_bit()
        return value - 1

    def read_se(self) -> int:
        mapped = self.read_ue()
        if mapped % 2 == 1:
            return (mapped + 1) // 2
        return -(mapped // 2)
