"""Binary snapshot files plus deterministic CSV and JSON writers.

Byte layout (all little-endian):

    magic    4s   b"NWB1"
    version  u16  currently 1
    kind     u16  3 = snapshot (1 and 2 are the grid kinds below)

Radial grid payload (kind 1)::

    r0 f8 | r_max f8 | n u32 | angular_mode u32 | sponge_cells u32
    | sponge_strength f8

Cartesian grid payload (kind 2)::

    L f8 | n u32 | sponge_cells u32 | sponge_strength f8
    | obstacle_kind u8 (1 sphere, 2 ellipsoid) | params 3 x f8
    | mask (n+1)^3 x u8, C order

Snapshot payload: an embedded grid record (kind u16 + payload as above),
then time f8, field count u16, and per field: name length u16, utf-8
name, ndim u8, dims ndim x u32, data f8 in C order.

Text artifacts are deterministic by construction: CSV floats use the
shortest round-trip form of %.17g and JSON is emitted with sorted keys,
so identical inputs give byte-identical files.
"""

import json
import struct

import numpy as np

from .errors import FormatError, ParamError
from .exterior import CartesianGrid, Obstacle, RadialGrid

MAGIC = b"NWB1"
VERSION = 1

KIND_RADIAL = 1
KIND_CARTESIAN = 2
KIND_SNAPSHOT = 3

_OBSTACLE_CODES = {"sphere": 1, "ellipsoid": 2}
_OBSTACLE_NAMES = {v: k for k, v in _OBSTACLE_CODES.items()}


class _Reader:
    """Cursor over a byte string that fails loudly on truncation."""

    def __init__(self, buf):
        self.buf = buf
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.buf):
            raise FormatError("truncated record: wanted %d bytes at offset %d"
                              % (n, self.pos))
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))

    def array(self, dtype, count):
        itemsize = np.dtype(dtype).itemsize
        raw = self.take(itemsize * count)
        return np.frombuffer(raw, dtype=dtype, count=count).copy()

    def done(self):
        if self.pos != len(self.buf):
            raise FormatError("%d trailing bytes after record"
                              % (len(self.buf) - self.pos))


def _grid_payload(grid):
    if grid.kind == "radial":
        return KIND_RADIAL, struct.pack(
            "<ddIIId", grid.r0, grid.r_max, grid.n, grid.angular_mode,
            grid.sponge_cells, grid.sponge_strength)
    obs = grid.obstacle
    params = list(obs.params) + [0.0] * (3 - len(obs.params))
    head = struct.pack(
        "<dIIdB3d", grid.L, grid.n, grid.sponge_cells, grid.sponge_strength,
        _OBSTACLE_CODES[obs.kind], *params)
    return KIND_CARTESIAN, head + grid.mask.astype(np.uint8).tobytes()


def _read_grid_payload(kind, rd):
    if kind == KIND_RADIAL:
        r0, r_max, n, mode, sponge, strength = rd.unpack("ddIIId")
        return RadialGrid(r0, r_max, n, angular_mode=mode,
                          sponge_cells=sponge, sponge_strength=strength)
    if kind == KIND_CARTESIAN:
        L, n, sponge, strength, code, p0, p1, p2 = rd.unpack("dIIdB3d")
        if code not in _OBSTACLE_NAMES:
            raise FormatError("unknown obstacle code %d" % code)
        if code == _OBSTACLE_CODES["sphere"]:
            obs = Obstacle.sphere(p0)
        else:
            obs = Obstacle.ellipsoid(p0, p1, p2)
        side = n + 1
        mask = rd.array(np.uint8, side ** 3).reshape(side, side, side)
        return CartesianGrid(obs, L, n, mask, sponge, strength)
    raise FormatError("unknown record kind %d" % kind)


def _check_header(rd):
    magic = rd.take(4)
    if magic != MAGIC:
        raise FormatError("bad magic %r" % (magic,))
    (version,) = rd.unpack("H")
    if version != VERSION:
        raise FormatError("unsupported version %d" % version)


def write_snapshot(path, grid, time, fields):
    """Write named arrays tied to one grid at one instant.

    fields: mapping name -> ndarray (stored as f8, C order).
    """
    kind, payload = _grid_payload(grid)
    parts = [MAGIC, struct.pack("<HH", VERSION, KIND_SNAPSHOT),
             struct.pack("<H", kind), payload,
             struct.pack("<dH", float(time), len(fields))]
    for name in fields:
        arr = np.ascontiguousarray(fields[name], dtype=np.float64)
        raw = name.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack("<%dI" % arr.ndim, *arr.shape))
        parts.append(arr.tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def read_snapshot(path):
    """Returns (grid, time, fields dict)."""
    with open(path, "rb") as fh:
        rd = _Reader(fh.read())
    _check_header(rd)
    (kind,) = rd.unpack("H")
    if kind != KIND_SNAPSHOT:
        raise FormatError("file holds a grid, not a snapshot")
    (gkind,) = rd.unpack("H")
    try:
        grid = _read_grid_payload(gkind, rd)
    except ParamError as e:
        # a record the grid or obstacle constructors refuse is malformed
        raise FormatError("bad grid record: %s" % e)
    time, count = rd.unpack("dH")
    fields = {}
    for _ in range(count):
        (nlen,) = rd.unpack("H")
        try:
            name = rd.take(nlen).decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError("field name is not utf-8: %s" % e)
        if name in fields:
            raise FormatError("field %r recorded twice" % name)
        (ndim,) = rd.unpack("B")
        dims = rd.unpack("%dI" % ndim) if ndim else ()
        size = int(np.prod(dims, dtype=np.int64)) if dims else 1
        fields[name] = rd.array(np.float64, size).reshape(dims)
    rd.done()
    return grid, time, fields


def format_float(x):
    """Shortest decimal form that round-trips the exact double."""
    return repr(float(x))


def write_csv(path, columns, rows):
    """Deterministic CSV: header row then %r-formatted float cells."""
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for v in row:
            if v is None:
                cells.append("")
            elif isinstance(v, str):
                cells.append(v)
            elif isinstance(v, (bool, np.bool_)):
                cells.append("true" if v else "false")
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append(format_float(v))
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError("not JSON serializable: %r" % type(obj))


def write_json(path, payload):
    """Deterministic JSON: sorted keys, two-space indent, final newline."""
    text = json.dumps(payload, sort_keys=True, indent=2,
                      default=_json_default)
    with open(path, "w") as fh:
        fh.write(text + "\n")
