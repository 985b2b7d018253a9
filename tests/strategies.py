"""Reusable Hypothesis strategies.

:func:`page_slot_mutations` draws byte-level damage confined to the page
region of a dataset pack; :func:`apply_mutations` applies it to the pack's
bytes.  Together they drive the page-slot fuzz suite, which opens the
damaged pack with checksum verification off so the damage reaches the
page decoder instead of being caught by the SHA-256.

:func:`catalog_edits` and :func:`header_edits` draw damage to a pack's
metadata instead — the JSON catalog and the fixed header fields — and
:func:`rebuild_pack` reassembles the pack around it with a freshly computed
checksum, so the damage passes verification and reaches the catalog and
geometry checks.
"""

from __future__ import annotations

import hashlib
import json
import struct

from hypothesis import strategies as st

from repro.storage.persist import HEADER_SIZE

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


#: JSON values no well-formed catalog field holds.
HOSTILE_JSON = st.one_of(
    st.sampled_from(["x", "", "1", None, True, False, 1.5, -1, 0, 2**63, -(2**63), 10**30]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**70), 2**70),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.sampled_from(["a", "0", "root_page_id"]), st.integers(-3, 3), max_size=2),
)

#: Raw catalog texts ``json.dumps`` cannot produce: an integer past the
#: interpreter's digit limit, and nesting past the recursion limit.
HOSTILE_TEXT = st.sampled_from(["1" * 4400, "[" * 3000 + "]" * 3000])


def catalog_edits(catalog: dict, *, limit: int):
    """One damaged rendering of ``catalog`` (a pack's decoded JSON catalog).

    Either up to three fields — top-level or one level into an object field
    (page counts, tree shapes, sections) — are deleted, replaced by a
    :data:`HOSTILE_JSON` value or replaced by a plausible one (another
    small integer; another ``[offset, length]`` pair below ``limit``, the
    catalog's own offset), or a :data:`HOSTILE_TEXT` is spliced in for one
    field's value, or the whole catalog becomes a non-object.  Returns the
    catalog bytes.
    """

    def plausible(value):
        if isinstance(value, int) and not isinstance(value, bool):
            return st.integers(0, max(2 * value, 8))
        if isinstance(value, list):
            return st.integers(0, limit).flatmap(
                lambda offset: st.tuples(st.just(offset), st.integers(0, limit - offset))
            ).map(list)
        return HOSTILE_JSON

    fields = [((key,), value) for key, value in catalog.items()]
    fields += [
        ((key, inner), value[inner])
        for key, value in catalog.items()
        if isinstance(value, dict)
        for inner in value
    ]
    edit = st.sampled_from(fields).flatmap(
        lambda field: st.tuples(
            st.just(field[0]), st.just(KeyError) | HOSTILE_JSON | plausible(field[1])
        )
    )

    def render(edits) -> bytes:
        damaged = json.loads(json.dumps(catalog))
        for path, value in edits:
            holder = damaged
            for key in path[:-1]:
                holder = holder.get(key) if isinstance(holder, dict) else None
            if not isinstance(holder, dict):
                continue
            if value is KeyError:
                holder.pop(path[-1], None)
            else:
                holder[path[-1]] = value
        return json.dumps(damaged).encode("utf-8")

    def splice(drawn) -> bytes:
        key, text = drawn
        damaged = dict(catalog, **{key: "SPLICE"})
        return json.dumps(damaged).replace('"SPLICE"', text).encode("utf-8")

    return st.one_of(
        st.lists(edit, min_size=1, max_size=3).map(render),
        st.tuples(st.sampled_from(list(catalog)), HOSTILE_TEXT).map(splice),
        HOSTILE_JSON.map(lambda value: json.dumps(value).encode("utf-8")),
    )


#: ``(name, offset)`` of the header's u64 geometry fields.
HEADER_FIELDS = {
    "page_size": 16,
    "slot_size": 24,
    "num_pages": 32,
    "catalog_offset": 40,
    "catalog_length": 48,
}


def header_edits(header: dict):
    """Up to two header geometry fields set to hostile u64 values.

    ``header`` is :func:`repro.storage.persist.read_pack_header` output; the
    values mix boundaries (0, 1, the field's own value plus or minus one,
    the file size, the u64 extremes) with arbitrary u64s.  Returns a dict
    mapping field names to new values.
    """

    def values(name):
        own = header[name]
        return st.sampled_from(
            [0, 1, max(own - 1, 0), own + 1, 2 * own, header["file_size"], 2**63, 2**64 - 1]
        ) | st.integers(0, 2**64 - 1)

    return st.lists(st.sampled_from(sorted(HEADER_FIELDS)), max_size=2, unique=True).flatmap(
        lambda names: st.fixed_dictionaries({name: values(name) for name in names})
    )


def rebuild_pack(data: bytes, header: dict, catalog_bytes: bytes, fields: dict) -> bytes:
    """The pack ``data`` with its catalog replaced by ``catalog_bytes``, the
    header fields in ``fields`` overwritten, and the checksum recomputed."""
    offset = header["catalog_offset"]
    pack = bytearray(data[:offset] + catalog_bytes)
    struct.pack_into("<Q", pack, HEADER_FIELDS["catalog_length"], len(catalog_bytes))
    for name, value in fields.items():
        struct.pack_into("<Q", pack, HEADER_FIELDS[name], value)
    pack[HEADER_SIZE - 32 : HEADER_SIZE] = bytes(32)
    pack[HEADER_SIZE - 32 : HEADER_SIZE] = hashlib.sha256(pack).digest()
    return bytes(pack)
