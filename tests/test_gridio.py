"""Binary grid/snapshot records and deterministic text artifacts."""

import struct

import numpy as np
import pytest

from nullwave import gridio
from nullwave.errors import FormatError
from nullwave.exterior import Obstacle, build_masked_grid, build_radial_grid


def _radial():
    return build_radial_grid(1.0, 48.0, 2000, angular_mode=1,
                             sponge_cells=170, sponge_strength=4.0)


def _cartesian():
    return build_masked_grid(Obstacle.ellipsoid(1.0, 0.5, 0.75), 12.0, 24,
                             sponge_cells=8, sponge_strength=2.5)


# ---------------------------------------------------------------------------
# round trips


def _grid_back(path, grid):
    # a snapshot with no fields carries the grid record alone
    gridio.write_snapshot(path, grid, 0.0, {})
    back, _, fields = gridio.read_snapshot(path)
    assert fields == {}
    return back


def test_radial_grid_round_trip(tmp_path):
    grid = _radial()
    back = _grid_back(tmp_path / "grid.nwb", grid)
    assert back.kind == "radial"
    assert back.r0 == grid.r0 and back.r_max == grid.r_max
    assert back.n == grid.n
    assert back.angular_mode == grid.angular_mode
    assert back.sponge_cells == grid.sponge_cells
    assert back.sponge_strength == grid.sponge_strength
    assert np.array_equal(back.r, grid.r)


def test_cartesian_grid_round_trip(tmp_path):
    grid = _cartesian()
    back = _grid_back(tmp_path / "grid.nwb", grid)
    assert back.kind == "cartesian"
    assert back.L == grid.L and back.n == grid.n
    assert back.obstacle.kind == "ellipsoid"
    assert back.obstacle.params == grid.obstacle.params
    assert np.array_equal(back.mask, grid.mask)
    assert back.sponge_cells == grid.sponge_cells


def test_sphere_masked_grid_round_trip(tmp_path):
    grid = build_masked_grid(Obstacle.sphere(1.5), 12.0, 24, sponge_cells=8,
                             sponge_strength=2.5)
    back = _grid_back(tmp_path / "grid.nwb", grid)
    assert back.kind == "cartesian"
    assert back.obstacle.kind == "sphere"
    assert back.obstacle.params == (1.5,)
    assert back.L == grid.L and back.n == grid.n
    assert np.array_equal(back.mask, grid.mask)
    assert back.sponge_cells == grid.sponge_cells
    assert back.sponge_strength == grid.sponge_strength


def test_snapshot_round_trip(tmp_path):
    path = tmp_path / "s.nwb"
    grid = build_radial_grid(1.0, 6.0, 100)
    rng = np.random.default_rng(42)
    u = rng.standard_normal(grid.n_nodes)
    v = rng.standard_normal(grid.n_nodes)
    gridio.write_snapshot(path, grid, 12.5, {"u": u, "v": v})
    back_grid, t, fields = gridio.read_snapshot(path)
    assert back_grid.kind == "radial" and back_grid.n == 100
    assert t == 12.5
    assert set(fields) == {"u", "v"}
    assert np.array_equal(fields["u"], u)
    assert np.array_equal(fields["v"], v)


def test_snapshot_multidim_field(tmp_path):
    path = tmp_path / "s.nwb"
    grid = _cartesian()
    field = grid.coords()[..., 0]
    gridio.write_snapshot(path, grid, 0.0, {"x": field})
    _, _, fields = gridio.read_snapshot(path)
    assert fields["x"].shape == field.shape
    assert np.array_equal(fields["x"], field)


def test_write_is_byte_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.nwb", tmp_path / "b.nwb"
    u = _radial().r ** 0.5
    gridio.write_snapshot(p1, _radial(), 1.5, {"u": u})
    gridio.write_snapshot(p2, _radial(), 1.5, {"u": u.copy()})
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# malformed records


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.nwb"
    path.write_bytes(b"WAVE" + b"\x00" * 40)
    with pytest.raises(FormatError):
        gridio.read_snapshot(path)


def test_bad_version(tmp_path):
    path = tmp_path / "bad.nwb"
    path.write_bytes(gridio.MAGIC + struct.pack("<HH", 9, gridio.KIND_SNAPSHOT)
                     + b"\x00" * 40)
    with pytest.raises(FormatError):
        gridio.read_snapshot(path)


def test_unknown_kind(tmp_path):
    path = tmp_path / "bad.nwb"
    # the grid record embedded in a snapshot carries an unknown kind
    path.write_bytes(gridio.MAGIC + struct.pack("<HHH", gridio.VERSION,
                                                gridio.KIND_SNAPSHOT, 77)
                     + b"\x00" * 40)
    with pytest.raises(FormatError, match="kind 77"):
        gridio.read_snapshot(path)


def test_kind_mismatch_between_readers(tmp_path):
    # a bare grid record (the layout of files from older versions) is
    # not a snapshot
    gpath = tmp_path / "g.nwb"
    kind, payload = gridio._grid_payload(build_radial_grid(1.0, 6.0, 100))
    gpath.write_bytes(gridio.MAGIC + struct.pack("<HH", gridio.VERSION, kind)
                      + payload)
    with pytest.raises(FormatError, match="not a snapshot"):
        gridio.read_snapshot(gpath)


def test_truncation_reports_offset(tmp_path):
    path = tmp_path / "t.nwb"
    grid = _cartesian()
    gridio.write_snapshot(path, grid, 0.0, {"u": grid.zeros()})
    whole = path.read_bytes()
    path.write_bytes(whole[: len(whole) // 2])
    with pytest.raises(FormatError, match="offset"):
        gridio.read_snapshot(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "t.nwb"
    grid = build_radial_grid(1.0, 6.0, 100)
    gridio.write_snapshot(path, grid, 0.0, {"u": grid.zeros()})
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        gridio.read_snapshot(path)


def test_unknown_obstacle_code(tmp_path):
    path = tmp_path / "t.nwb"
    grid = _cartesian()
    gridio.write_snapshot(path, grid, 0.0, {})
    raw = bytearray(path.read_bytes())
    # obstacle code byte sits after header (8), grid kind (2) and
    # L, n, sponge, strength
    off = 10 + struct.calcsize("<dIId")
    assert raw[off] == 2
    raw[off] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="obstacle"):
        gridio.read_snapshot(path)


# a grid record's payload starts after the header (8) and grid kind (2)
_PAYLOAD = 10
_CARTESIAN_HEAD = struct.calcsize("<dIIdB3d")


@pytest.mark.parametrize("grid,fmt,off,value", [
    (_cartesian, "<d", struct.calcsize("<dII"), -1.0),
    (_cartesian, "<d", struct.calcsize("<dII"), float("nan")),
    (_cartesian, "<I", struct.calcsize("<dI"), 1000),
    (_cartesian, "<B", _CARTESIAN_HEAD + 5, 9),
    (_radial, "<d", 0, -1.0)],
    ids=["negative-sponge-strength", "nan-sponge-strength",
         "sponge-cells-past-half-n", "mask-code-9", "negative-r0"])
def test_tampered_grid_record_is_a_format_error(tmp_path, grid, fmt, off,
                                                value):
    # the reader refuses every grid record the builders would refuse
    path = tmp_path / "t.nwb"
    gridio.write_snapshot(path, grid(), 0.0, {})
    raw = bytearray(path.read_bytes())
    struct.pack_into(fmt, raw, _PAYLOAD + off, value)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="bad grid record"):
        gridio.read_snapshot(path)


def _field_names(tmp_path, names):
    """The bytes of a radial snapshot with a zero field under each name,
    and the offset of each name's first byte."""
    path = tmp_path / "t.nwb"
    grid = build_radial_grid(1.0, 6.0, 16)
    gridio.write_snapshot(path, grid, 0.0,
                          {name: grid.zeros() for name in names})
    raw = bytearray(path.read_bytes())
    # each field record: name length (2), name, ndim (1), one dim (4),
    # then 8 bytes per node
    off = _PAYLOAD + struct.calcsize("<ddIIId") + struct.calcsize("<dH") + 2
    offsets = []
    for name in names:
        assert raw[off:off + len(name)] == name.encode()
        offsets.append(off)
        off += len(name) + 1 + 4 + 8 * grid.n_nodes + 2
    return path, raw, offsets


def test_field_name_that_is_not_utf8_is_a_format_error(tmp_path):
    path, raw, (off,) = _field_names(tmp_path, ["u"])
    raw[off] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="utf-8"):
        gridio.read_snapshot(path)


def test_repeated_field_name_is_a_format_error(tmp_path):
    path, raw, (_, off) = _field_names(tmp_path, ["u", "v"])
    raw[off] = ord("u")
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="'u' recorded twice"):
        gridio.read_snapshot(path)


# ---------------------------------------------------------------------------
# text artifacts


def test_format_float_round_trips():
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = float(rng.standard_normal() * 10.0 ** rng.integers(-12, 12))
        assert float(gridio.format_float(x)) == x
    assert gridio.format_float(0.5) == "0.5"
    assert gridio.format_float(np.float64(2.0)) == "2.0"


def test_write_csv_cells(tmp_path):
    path = tmp_path / "t.csv"
    gridio.write_csv(path, ["a", "b", "c", "d", "e"],
                     [[1, 0.5, None, True, "x"],
                      [np.int64(2), np.float64(0.1), None, False, "y"]])
    text = path.read_text()
    assert text == ("a,b,c,d,e\n"
                    "1,0.5,,true,x\n"
                    "2,0.1,,false,y\n")


def test_write_csv_deterministic(tmp_path):
    rows = [[i, np.sqrt(i + 0.1)] for i in range(20)]
    p1, p2 = tmp_path / "1.csv", tmp_path / "2.csv"
    gridio.write_csv(p1, ["i", "v"], rows)
    gridio.write_csv(p2, ["i", "v"], rows)
    assert p1.read_bytes() == p2.read_bytes()


def test_write_json_sorted_and_typed(tmp_path):
    path = tmp_path / "t.json"
    gridio.write_json(path, {"b": np.float64(1.5), "a": np.int32(2),
                             "c": {"z": np.bool_(True),
                                   "arr": np.arange(3)}})
    text = path.read_text()
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert text.endswith("\n")
    import json
    back = json.loads(text)
    assert back == {"a": 2, "b": 1.5, "c": {"z": True, "arr": [0, 1, 2]}}


def test_write_json_rejects_unknown_types(tmp_path):
    with pytest.raises(TypeError):
        gridio.write_json(tmp_path / "t.json", {"x": object()})
