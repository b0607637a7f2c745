"""The spies of the packed-pass tests: PackedTiles records the tiles
that butson._first_packed_failure or latin._first_unmet_pair slices, and
the units bhmat.errors.tile_units gave it, and can force that rule, so a
test that sets a tile also checks that the kernel used it; it can also
force butson's trim rule.  count_conjugates counts the conjugates that
LatinSquare builds.
"""

from contextlib import ExitStack
from functools import cached_property
from unittest import mock

from bhmat import errors
from bhmat.latin import LatinSquare

# The tile of PackedTiles that keeps the rule under a one-byte budget, so
# the floor decides every tile.
FLOOR = "floor"

# The trims of PackedTiles besides butson's own rule and an int k (trim
# once k rows are dead): none at all, and the rule without its byte floor
# (the 1/8 share alone).
NEVER, NO_BYTE_FLOOR = "never", "no byte floor"

# The packed kernel of each module, and the positional argument it slices.
KERNELS = {"bhmat.butson": ("_first_packed_failure", 0), "bhmat.latin": ("_first_unmet_pair", 1)}


class Sliced(tuple):
    """Rows that record the tiles [start, stop) sliced from them."""

    def __new__(cls, rows):
        self = super().__new__(cls, rows)
        self.seen = []
        return self

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.seen.append((key.start, key.stop))
        return super().__getitem__(key)


class PackedTiles(ExitStack):
    """Within the block, module's tile rule gives tile units a tile (None
    and FLOOR: the rule's own answer), and each call of its packed kernel
    must slice tiles that start at a multiple of the units it was given
    and hold that many, or end the sequence.  tiles and units list them
    over every call.  trim (butson only; None: its own _trim_pays) sets
    the rule by which the kernel shifts dead slots out of a tile."""

    def __init__(self, module, tile=None, trim=None):
        super().__init__()
        name, arg = KERNELS[module.__name__]
        kernel, rule = getattr(module, name), module.tile_units
        self.tiles, self.units = [], []

        def forced(unit_bytes):
            self.units.append(rule(unit_bytes) if tile in (None, FLOOR) else tile)
            assert tile != FLOOR or self.units[-1] == errors._TILE_FLOOR
            return self.units[-1]

        def spy(*args):
            args = list(args)
            rows = args[arg] = Sliced(args[arg])
            result = kernel(*args)
            units = self.units[-1]
            for start, stop in rows.seen:
                assert start % units == 0 and stop == min(start + units, len(rows)), (start, stop, units)
            self.tiles += rows.seen
            return result

        self.enter_context(mock.patch.multiple(module, **{name: spy, "tile_units": forced}))
        if tile == FLOOR:
            self.enter_context(mock.patch.object(errors, "_TILE_BYTES", 1))
        if trim == NO_BYTE_FLOOR:
            self.enter_context(mock.patch.object(module, "_TRIM_BYTES", 0))
        elif trim is not None:
            def pays(dead, live, slot):
                return trim != NEVER and dead >= trim

            self.enter_context(mock.patch.object(module, "_trim_pays", pays))

    @property
    def unit(self):
        """The one unit count every call was given."""
        (units,) = set(self.units)
        return units


def count_conjugates(monkeypatch):
    """Within the test, LatinSquare._conjugate appends 1 to the returned
    list each time it builds a square's conjugate, and caches it as before."""
    built = []
    build = LatinSquare._conjugate.func

    def counting(square):
        built.append(1)
        return build(square)

    prop = cached_property(counting)
    prop.__set_name__(LatinSquare, "_conjugate")
    monkeypatch.setattr(LatinSquare, "_conjugate", prop)
    return built
