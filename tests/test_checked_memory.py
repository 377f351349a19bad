"""Unit tests for the Argus-1 protected memory (D XOR A + parity)."""

from hypothesis import given, strategies as st

from repro.mem.checked import CheckedMemory, parity32

WORDS = st.integers(0, 0xFFFFFFFF)
ADDRS = st.integers(0, 0x7FFFFF).map(lambda a: a << 2)


class TestParity:
    def test_known_values(self):
        assert parity32(0) == 0
        assert parity32(1) == 1
        assert parity32(0b11) == 0
        assert parity32(0xFFFFFFFF) == 0
        assert parity32(0x80000001) == 0
        assert parity32(0x80000000) == 1


class TestStoreLoad:
    def test_roundtrip(self):
        mem = CheckedMemory()
        mem.store_word(0x100, 0xDEADBEEF)
        event = mem.load_word(0x100)
        assert event.ok
        assert event.value == 0xDEADBEEF

    def test_unwritten_word_reads_zero_ok(self):
        event = CheckedMemory().load_word(0x4000)
        assert event.ok
        assert event.value == 0

    def test_internal_storage_is_scrambled(self):
        mem = CheckedMemory()
        mem.store_word(0x100, 0xDEADBEEF)
        assert mem.stored_word(0x100) == 0xDEADBEEF ^ 0x100

    def test_peek_does_not_check(self):
        mem = CheckedMemory()
        mem.store_word(0x100, 7)
        mem.corrupt_parity(0x100)
        assert mem.peek_word(0x100) == 7

    def test_functional_snapshot(self):
        mem = CheckedMemory()
        mem.store_word(0x10, 1)
        mem.store_word(0x20, 2)
        assert mem.functional_snapshot() == {0x10: 1, 0x20: 2}


class TestCorruptionDetection:
    def test_stored_bit_flip_detected(self):
        mem = CheckedMemory()
        mem.store_word(0x100, 0x12345678)
        mem.corrupt_stored_bit(0x100, 5)
        assert not mem.load_word(0x100).ok

    def test_parity_bit_flip_detected(self):
        mem = CheckedMemory()
        mem.store_word(0x100, 0x12345678)
        mem.corrupt_parity(0x100)
        assert not mem.load_word(0x100).ok

    def test_double_bit_flip_escapes_parity(self):
        """Even-weight corruption aliases - the EDC limit the paper notes."""
        mem = CheckedMemory()
        mem.store_word(0x100, 0x12345678)
        mem.corrupt_stored_bit(0x100, 3)
        mem.corrupt_stored_bit(0x100, 7)
        event = mem.load_word(0x100)
        assert event.ok
        assert event.value != 0x12345678


class TestWrongWordAccess:
    def test_wrong_word_load_detected(self):
        """A load that reaches the wrong word unscrambles with the wrong
        address; a one-bit address difference trips parity (Sec. 3.4)."""
        mem = CheckedMemory()
        mem.store_word(0x100, 0xAAAA5555)
        mem.store_word(0x104, 0x12345678)
        event = mem.load_word_at_physical(requested=0x100, actual=0x104)
        assert not event.ok

    def test_wrong_word_load_correct_when_addresses_match(self):
        mem = CheckedMemory()
        mem.store_word(0x100, 0xAAAA5555)
        event = mem.load_word_at_physical(requested=0x100, actual=0x100)
        assert event.ok and event.value == 0xAAAA5555

    def test_wrong_word_store_detected_at_victim(self):
        mem = CheckedMemory()
        mem.store_word(0x210, 0x11111111)
        mem.store_word_at_physical(requested=0x200, actual=0x210,
                                   value=0x22222222)
        assert not mem.load_word(0x210).ok

    def test_wrong_word_store_even_address_difference_aliases(self):
        """An even-weight address error scrambles consistently with the
        parity of the XOR - the residual alias the paper accepts."""
        mem = CheckedMemory()
        mem.store_word_at_physical(requested=0x100, actual=0x200,
                                   value=0x22222222)
        assert mem.load_word(0x200).ok  # escapes: diff 0x300 is even weight

    def test_wrong_word_store_leaves_target_stale(self):
        """The intended word is silently not updated - the uncovered class
        the paper concedes in Sec. 3.4."""
        mem = CheckedMemory()
        mem.store_word(0x100, 0x11111111)
        mem.store_word_at_physical(requested=0x100, actual=0x104,
                                   value=0x22222222)
        event = mem.load_word(0x100)
        assert event.ok  # stale but self-consistent: undetectable
        assert event.value == 0x11111111

    def test_store_with_stale_parity_detected_on_load(self):
        """Parity travels with the data: corrupting the value after parity
        generation (a store-data-bus fault) is caught at the next load."""
        mem = CheckedMemory()
        correct = 0x0F0F0F0F
        corrupted = correct ^ 0x10
        mem.store_word(0x300, corrupted, parity=parity32(correct))
        assert not mem.load_word(0x300).ok


@given(address=ADDRS, value=WORDS)
def test_roundtrip_property(address, value):
    mem = CheckedMemory()
    mem.store_word(address, value)
    event = mem.load_word(address)
    assert event.ok and event.value == value


@given(address=ADDRS, value=WORDS, bit=st.integers(0, 31))
def test_single_bit_storage_fault_always_detected(address, value, bit):
    """Property: any single-bit flip of the stored word trips parity."""
    mem = CheckedMemory()
    mem.store_word(address, value)
    mem.corrupt_stored_bit(address, bit)
    assert not mem.load_word(address).ok


@given(address=ADDRS, other=ADDRS, value=WORDS)
def test_odd_weight_wrong_word_loads_detected(address, other, value):
    """Property: wrong-word loads with odd-weight address difference are
    always detected; even-weight differences may alias."""
    mem = CheckedMemory()
    mem.store_word(other, value)
    event = mem.load_word_at_physical(requested=address, actual=other)
    difference = (address ^ other) & 0x7FFFFFC
    if parity32(difference) == 1:
        assert not event.ok
