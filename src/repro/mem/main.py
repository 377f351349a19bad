"""Flat byte-addressable main memory.

Backing store for the whole 27-bit physical address space, implemented as
a sparse dict of 4 KiB pages so huge address spaces cost nothing.  All
multi-byte accesses are little-endian; word/half accesses must be
naturally aligned (the OR1200-like core has no unaligned support).
"""

from repro.isa import registers


class MisalignedAccess(Exception):
    """Raised for unaligned word/halfword accesses."""

    def __init__(self, address, size):
        super().__init__("misaligned %d-byte access at 0x%x" % (size, address))
        self.address = address
        self.size = size


_PAGE_BITS = 12
_PAGE_SIZE = 1 << _PAGE_BITS
_PAGE_MASK = _PAGE_SIZE - 1


class MainMemory:
    """Sparse little-endian byte memory covering the 27-bit address space."""

    def __init__(self):
        self._pages = {}

    def _page(self, address):
        number = address >> _PAGE_BITS
        page = self._pages.get(number)
        if page is None:
            page = bytearray(_PAGE_SIZE)
            self._pages[number] = page
        return page

    # -- byte ------------------------------------------------------------
    def read_byte(self, address):
        address &= registers.ADDR_MASK
        page = self._pages.get(address >> _PAGE_BITS)
        if page is None:
            return 0
        return page[address & _PAGE_MASK]

    def write_byte(self, address, value):
        address &= registers.ADDR_MASK
        self._page(address)[address & _PAGE_MASK] = value & 0xFF

    # -- half ------------------------------------------------------------
    def read_half(self, address):
        address &= registers.ADDR_MASK
        if address & 1:
            raise MisalignedAccess(address, 2)
        page = self._pages.get(address >> _PAGE_BITS)
        if page is None:
            return 0
        offset = address & _PAGE_MASK
        return page[offset] | (page[offset + 1] << 8)

    def write_half(self, address, value):
        address &= registers.ADDR_MASK
        if address & 1:
            raise MisalignedAccess(address, 2)
        page = self._page(address)
        offset = address & _PAGE_MASK
        page[offset] = value & 0xFF
        page[offset + 1] = (value >> 8) & 0xFF

    # -- word ------------------------------------------------------------
    def read_word(self, address):
        address &= registers.ADDR_MASK
        if address & 3:
            raise MisalignedAccess(address, 4)
        page = self._pages.get(address >> _PAGE_BITS)
        if page is None:
            return 0
        offset = address & _PAGE_MASK
        return int.from_bytes(page[offset:offset + 4], "little")

    def write_word(self, address, value):
        address &= registers.ADDR_MASK
        if address & 3:
            raise MisalignedAccess(address, 4)
        page = self._page(address)
        offset = address & _PAGE_MASK
        page[offset:offset + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")

    # -- bulk helpers ------------------------------------------------------
    def read_block(self, address, size):
        """Read ``size`` bytes starting at ``address`` (diagnostics)."""
        return bytes(self.read_byte(address + i) for i in range(size))

    def write_block(self, address, data):
        """Write the bytes of ``data`` from ``address`` on, wrapping at
        ``ADDR_MASK`` as :meth:`write_byte` does: one slice copy per
        page touched."""
        data = memoryview(data).cast("B")
        pos = 0
        while pos < len(data):
            address &= registers.ADDR_MASK
            offset = address & _PAGE_MASK
            chunk = min(_PAGE_SIZE - offset, len(data) - pos)
            self._page(address)[offset:offset + chunk] = data[pos:pos + chunk]
            pos += chunk
            address += chunk

    def snapshot(self):
        """Deep copy of all touched pages (golden-state comparison)."""
        return {number: bytes(page) for number, page in self._pages.items()}

    def equals_snapshot(self, snap):
        """Compare live memory to a snapshot, treating absent pages as zero."""
        zero = bytes(_PAGE_SIZE)
        numbers = set(self._pages) | set(snap)
        for number in numbers:
            live = bytes(self._pages.get(number, zero))
            gold = snap.get(number, zero)
            if live != gold:
                return False
        return True
