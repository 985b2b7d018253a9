"""Reusable Hypothesis strategies.

:func:`page_slot_mutations` draws byte-level damage confined to the page
region of a dataset pack; :func:`apply_mutations` applies it to the pack's
bytes.  Together they drive the page-slot fuzz suite, which opens the
damaged pack with checksum verification off so the damage reaches the
page decoder instead of being caught by the SHA-256.
"""

from __future__ import annotations

import struct

from hypothesis import strategies as st

RECORD_COUNT_OFFSET = 2  # the u16 record count in a slot header


def id_list_length_offsets(data, *, region_start: int, slot_size: int, num_pages: int, num_cost_types: int):
    """Absolute offsets of every id-list length (u32) in an intact pack.

    An independent walk of the slot format: adjacency records end in their
    facility-page list, B+-tree leaves hold a key list and one list per key
    (after an edge id in the facility tree), internal records hold a
    separator and a child list.  Facility records have no list.
    """
    found: list[int] = []

    def skip_list(pos: int) -> int:
        found.append(pos)
        (length,) = struct.unpack_from("<I", data, pos)
        return pos + 4 + 8 * length

    for page in range(num_pages):
        pos = region_start + page * slot_size
        kind = data[pos]
        (records,) = struct.unpack_from("<H", data, pos + RECORD_COUNT_OFFSET)
        pos += 8
        for _ in range(records):
            if kind == 0:  # adjacency: node, neighbour, edge, first node, length, count, costs
                pos = skip_list(pos + 44 + 8 * num_cost_types)
            elif kind == 1:  # facility: id, edge, offset
                pos += 24
            elif data[pos] == 0:  # leaf
                (keys,) = struct.unpack_from("<I", data, pos + 1)
                pos = skip_list(pos + 1)
                for _ in range(keys):
                    pos = skip_list(pos + (8 if kind == 3 else 0))
            else:  # internal
                pos = skip_list(skip_list(pos + 1))
    return found


def page_slot_mutations(
    *,
    region_start: int,
    slot_size: int,
    num_pages: int,
    length_offsets=(),
    max_size: int = 4,
):
    """Lists of ``(offset, payload, xor)`` mutations inside the page region.

    Three kinds are mixed:

    * a single-bit flip anywhere in a slot;
    * an overwrite of one to eight random bytes anywhere in a slot;
    * a count overrun: the slot's record count, or a u32 at any in-slot
      offset or at one of ``length_offsets`` (see
      :func:`id_list_length_offsets`), set to a large value — often one
      past what the slot can hold.

    With ``xor`` the payload is XOR-ed into the bytes, otherwise it
    replaces them.  Every mutation stays inside its slot.
    """

    def placed(payload_strategy):
        def in_slot(draw_payload):
            return st.tuples(
                st.integers(0, num_pages - 1),
                st.integers(0, slot_size - len(draw_payload)),
                st.just(draw_payload),
            )

        return payload_strategy.flatmap(in_slot)

    def absolute(xor):
        return lambda drawn: (region_start + drawn[0] * slot_size + drawn[1], drawn[2], xor)

    flips = placed(st.integers(0, 7).map(lambda bit: bytes([1 << bit]))).map(absolute(True))
    overwrites = placed(st.binary(min_size=1, max_size=8)).map(absolute(False))
    record_counts = st.tuples(
        st.integers(0, num_pages - 1),
        st.integers(min(slot_size // 8, 0xFFFF), 0xFFFF),
    ).map(
        lambda drawn: (
            region_start + drawn[0] * slot_size + RECORD_COUNT_OFFSET,
            struct.pack("<H", drawn[1]),
            False,
        )
    )
    big_u32 = st.sampled_from([slot_size // 8 + 1, slot_size, 0x7FFFFFFF, 0xFFFFFFFF]) | st.integers(
        0, 0xFFFFFFFF
    )
    anywhere = st.tuples(st.integers(0, num_pages - 1), st.integers(0, slot_size - 4)).map(
        lambda drawn: region_start + drawn[0] * slot_size + drawn[1]
    )
    if length_offsets:
        anywhere = anywhere | st.sampled_from(list(length_offsets))
    list_counts = st.tuples(anywhere, big_u32).map(
        lambda drawn: (drawn[0], struct.pack("<I", drawn[1]), False)
    )
    mutation = st.one_of(flips, overwrites, record_counts, list_counts)
    return st.lists(mutation, min_size=1, max_size=max_size)


def apply_mutations(data: bytearray, mutations) -> None:
    """Apply :func:`page_slot_mutations` output to ``data`` in place."""
    for offset, payload, xor in mutations:
        if xor:
            for index, byte in enumerate(payload):
                data[offset + index] ^= byte
        else:
            data[offset : offset + len(payload)] = payload
