"""Field container semantics, window moves, and the text serialization."""

import numpy as np
import pytest

from choquard import (
    Field,
    InputError,
    ball,
    get_window,
    gradient_form,
    laplacian,
    load_field,
    save_field,
)


def test_constructor_validates_shape_and_finiteness():
    w = get_window(2, 2)
    with pytest.raises(InputError):
        Field(w, np.zeros(w.count - 1))
    bad = np.zeros(w.count)
    bad[3] = np.nan
    with pytest.raises(InputError):
        Field(w, bad)


def test_delta_and_from_sites():
    w = get_window(2, 3)
    d = Field.delta(w)
    assert d.values.sum() == 1.0
    assert d.values[w.index_of((0, 0))] == 1.0
    e = Field.delta(w, (1, -2))
    assert e.values[w.index_of((1, -2))] == 1.0
    f = Field.from_sites(w, {(0, 0): 2.0, (1, 1): -0.5})
    assert f.values[w.index_of((1, 1))] == -0.5
    with pytest.raises(InputError):
        Field.from_sites(w, {(9, 9): 1.0})


def test_arithmetic_and_window_mismatch():
    w = get_window(2, 2)
    u = Field.delta(w)
    v = Field.delta(w, (1, 0))
    s = u + v - 0.5 * u
    assert s.values[w.index_of((0, 0))] == 0.5
    assert (-u).values[w.index_of((0, 0))] == -1.0
    other = Field.delta(get_window(2, 3))
    with pytest.raises(InputError):
        _ = u + other


def test_embed_restrict_round_trip():
    small = get_window(2, 2)
    big = get_window(2, 5)
    u = Field.from_sites(small, {(1, -2): 3.5, (0, 0): -1.0})
    lifted = u.embed(big)
    assert lifted.values[big.index_of((1, -2))] == 3.5
    back = lifted.values[big.indices_of(small.sites)]
    assert np.array_equal(back, u.values)
    with pytest.raises(InputError):
        u.embed(get_window(2, 1))
    with pytest.raises(InputError):
        lifted.embed(small)


def test_support_and_radius():
    w = get_window(2, 4)
    u = Field.from_sites(w, {(2, -3): 1.0, (0, 1): 2.0})
    assert set(u.support()) == {(2, -3), (0, 1)}
    assert w.reach(u.support().as_array()) == 3
    assert w.reach(Field.zero(w).support().as_array()) == 0
    assert u.is_supported_in(ball((0, 0), 5))
    assert not u.is_supported_in(ball((0, 0), 1))


def test_translated_moves_support():
    w = get_window(2, 4)
    u = Field.from_sites(w, {(0, 0): 1.0, (1, 0): 2.0})
    moved = u.translated((2, -1))
    assert moved.values[w.index_of((2, -1))] == 1.0
    assert moved.values[w.index_of((3, -1))] == 2.0
    assert moved.values.sum() == u.values.sum()
    with pytest.raises(InputError):
        u.translated((4, 0))
    with pytest.raises(InputError):
        u.translated((1, 2, 3))
    # a fractional shift is rejected, not truncated
    with pytest.raises(InputError, match="integers"):
        u.translated((2.7, 0))


def test_save_load_round_trip_is_bit_exact(tmp_path):
    w = get_window(2, 3)
    rng = np.random.default_rng(5)
    values = np.where(rng.random(w.count) < 0.5, rng.standard_normal(w.count) * 1e-7, 0.0)
    u = Field(w, values)
    path = tmp_path / "field.txt"
    save_field(u, path)
    v = load_field(path)
    assert v.window == w
    assert np.array_equal(v.values, u.values)


def test_save_writes_one_line_per_support_site_across_blocks(tmp_path):
    # 2401 sites: three blocks of lines, the last one partial
    w = get_window(2, 24)
    rng = np.random.default_rng(6)
    values = rng.standard_normal(w.count)
    values[::7] = 0.0
    u = Field(w, values)
    path = tmp_path / "field.txt"
    save_field(u, path)
    nz = np.nonzero(values)[0]
    expected = ["lattice-field v1", "dim 2", "radius 24", "shape box", f"support {nz.size}"]
    expected += [f"{int(w.sites[i][0])} {int(w.sites[i][1])} {float(values[i])!r}" for i in nz]
    assert path.read_text() == "\n".join(expected) + "\n"
    assert np.array_equal(load_field(path).values, values)
    save_field(Field.zero(w), path)
    assert path.read_text() == "lattice-field v1\ndim 2\nradius 24\nshape box\nsupport 0\n"


@pytest.mark.parametrize("dim, radius", [(2, 24), (3, 7)])
def test_save_writes_the_bytes_of_the_per_line_formatter(tmp_path, dim, radius):
    # negative, subnormal, tiny and large values, over more than one block
    w = get_window(dim, radius)
    rng = np.random.default_rng(dim)
    scale = rng.choice([-1e300, -3.0, -1e-12, 5e-324, 1e-300, 2.5, 7e21, 1.0e300], size=w.count)
    values = scale * rng.random(w.count)
    values[::5] = 0.0
    u = Field(w, values)
    path = tmp_path / "field.txt"
    save_field(u, path)
    nz = np.nonzero(values)[0]
    lines = zip(w.sites[nz].tolist(), values[nz].tolist())
    body = "".join(f"{' '.join(map(str, site))} {value!r}\n" for site, value in lines)
    header = f"lattice-field v1\ndim {dim}\nradius {radius}\nshape box\nsupport {nz.size}\n"
    assert path.read_bytes() == (header + body).encode()
    assert np.array_equal(load_field(path).values, values)


def test_load_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("something else\n")
    with pytest.raises(InputError):
        load_field(path)
    good = tmp_path / "short.txt"
    w = get_window(2, 2)
    save_field(Field.delta(w), good)
    text = good.read_text().splitlines()
    text[4] = "support 2"
    good.write_text("\n".join(text) + "\n")
    with pytest.raises(InputError):
        load_field(good)
    # a missing header line, unparsable numbers, and rows of the wrong width
    # all name the file
    head = ["lattice-field v1", "dim 2", "radius 2", "shape box"]
    for lines in (
        ["lattice-field v1", "dim 2", "shape box", "support 1", "0 0 1.0"],
        head + ["support x", "0 0 1.0"],
        head + ["support 1", "a 0 1.0"],
        head + ["support 1", "0 0 x"],
        head + ["support 1", "0 0"],
        head + ["support 1", "0 0 1.0 2.0"],
    ):
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match="bad.txt"):
            load_field(path)


def test_load_rejects_a_window_shape_other_than_box(tmp_path):
    # windows are boxes; a file that declares another shape is refused
    path = tmp_path / "ball.txt"
    path.write_text("lattice-field v1\ndim 2\nradius 2\nshape ball\nsupport 1\n0 0 1.0\n")
    with pytest.raises(InputError, match=r"bad window shape 'ball' in .*ball\.txt"):
        load_field(path)


def test_load_rejects_a_repeated_site_whose_first_value_is_zero(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("lattice-field v1\ndim 2\nradius 2\nshape box\nsupport 2\n0 0 0.0\n0 0 1.5\n")
    with pytest.raises(InputError, match="duplicate site"):
        load_field(path)


def _embed_by_lookup(u, target):
    """Zero-extension into ``target`` by a site lookup."""
    values = np.zeros(target.count)
    values[target.indices_of(u.window.sites)] = u.values
    return values


def test_field_embed_matches_the_lookup_and_checks_containment():
    small, big = get_window(2, 3), get_window(2, 5)
    u = Field(small, np.arange(1.0, small.count + 1.0))
    assert np.array_equal(u.embed(big).values, _embed_by_lookup(u, big))
    assert np.array_equal(u.values, np.arange(1.0, small.count + 1.0))
    with pytest.raises(InputError, match="does not contain"):
        Field.zero(big).embed(small)
    with pytest.raises(InputError, match="does not contain"):
        Field.zero(small).embed(get_window(3, 5))


@pytest.mark.parametrize("dim", [2, 3])
def test_stencils_match_the_lookup_embedding(dim):
    w = get_window(dim, 5 if dim == 2 else 3)
    big = w.enlarged(1)
    # neighbour indices in big, slots -e_1, +e_1, ...; -1 reads the appended 0
    steps = [sign * e for e in np.eye(dim, dtype=np.int64) for sign in (-1, 1)]
    neighbors = np.stack([big.indices_of(big.sites + step) for step in steps], axis=1)
    rng = np.random.default_rng(4)
    for _ in range(3):
        u = Field(w, rng.standard_normal(w.count))
        v = Field(w, rng.standard_normal(w.count))
        ue, ve = _embed_by_lookup(u, big), _embed_by_lookup(v, big)
        up, vp = np.append(ue, 0.0), np.append(ve, 0.0)
        lap = laplacian(u)
        assert lap.window == big
        assert np.array_equal(lap.values, up[neighbors].sum(axis=1) - 2.0 * big.dim * ue)
        du = up[neighbors] - ue[:, None]
        dv = vp[neighbors] - ve[:, None]
        assert np.array_equal(gradient_form(u, v).values, 0.5 * (du * dv).sum(axis=1))
