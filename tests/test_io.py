import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rel_gap
from formprobe.fields import FormField, GridSpec, n_components
from formprobe.halfspace import boundary_grid, restrict_to_half, trace_tangential
from formprobe.io import (FORM_MAGIC, load_boundary_form, load_form_field,
                          load_transformation, save_boundary_form,
                          save_form_field, save_transformation)
from formprobe.manufactured import random_band_limited, random_dense_media
from formprobe.media import make_transformation, scalar_catalog
from formprobe.spectral import fourier


def test_form_field_roundtrip(tmp_path):
    g = GridSpec(3, 2.0, 8)
    e = random_band_limited(g, 2, 3, real=False)
    path = tmp_path / "field.formfld"
    save_form_field(path, e)
    loaded = load_form_field(path)
    assert loaded.grid == e.grid and loaded.rank == e.rank
    assert np.array_equal(loaded.data, e.data)


def test_form_field_header_contents(tmp_path):
    g = GridSpec(2, 1.5, 8)
    e = random_band_limited(g, 1, 4)
    path = tmp_path / "field.formfld"
    save_form_field(path, e)
    with open(path, "rb") as fh:
        assert fh.read(len(FORM_MAGIC)) == FORM_MAGIC
        header = json.loads(fh.readline())
    assert header == {"N": 2, "q": 1, "L": 1.5, "n": 8,
                      "order": "lex-increasing", "endian": "little"}


def test_spectral_fields_are_not_persisted(tmp_path):
    g = GridSpec(2, 1.0, 8)
    hat = fourier(random_band_limited(g, 0, 1))
    with pytest.raises(ValueError):
        save_form_field(tmp_path / "nope", hat)


def test_big_endian_payload_honored(tmp_path):
    g = GridSpec(2, 1.0, 8)
    e = random_band_limited(g, 1, 9, real=False)
    path = tmp_path / "big.formfld"
    header = {"N": 2, "q": 1, "L": 1.0, "n": 8,
              "order": "lex-increasing", "endian": "big"}
    with open(path, "wb") as fh:
        fh.write(FORM_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(np.ascontiguousarray(e.data, ">c16").tobytes())
    loaded = load_form_field(path)
    assert np.array_equal(loaded.data, e.data)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk"
    path.write_bytes(b"NOTAFORM\n{}")
    with pytest.raises(ValueError, match="magic"):
        load_form_field(path)


def test_boundary_form_roundtrip(tmp_path):
    g = GridSpec(3, 2.0, 8)
    b = trace_tangential(restrict_to_half(random_band_limited(g, 1, 5)))
    path = tmp_path / "trace.formbnd"
    save_boundary_form(path, b)
    loaded = load_boundary_form(path)
    assert loaded.grid == boundary_grid(g)
    assert np.array_equal(loaded.data, b.data)


def test_transformation_catalog_roundtrip(tmp_path):
    g = GridSpec(2, 3.0, 16)
    eps = scalar_catalog(g, "gauss_well", amplitude=0.5, width=1.0)
    path = tmp_path / "eps.formeps"
    save_transformation(path, eps, catalog_tag="gauss_well",
                        catalog_params={"amplitude": 0.5, "width": 1.0})
    loaded = load_transformation(path)
    assert loaded.kind == "scalar"
    assert np.allclose(loaded.hat, eps.hat, atol=0)
    # catalog reload preserves the closed-form derivative entries
    assert loaded.hat_calculus is not None


def test_transformation_dense_roundtrip(tmp_path):
    g = GridSpec(2, 1.0, 8)
    eps = random_dense_media(g, 1, 7, amplitude=0.4)
    path = tmp_path / "dense.formeps"
    save_transformation(path, eps)
    loaded = load_transformation(path)
    assert loaded.kind == "dense"
    assert np.array_equal(loaded.hat, eps.hat)
    e = random_band_limited(g, 1, 3, real=False)
    assert rel_gap(loaded.apply(e), eps.apply(e)) == 0.0


def test_transformation_identity_roundtrip(tmp_path):
    g = GridSpec(2, 1.0, 8)
    eps = make_transformation(g, 1, "identity", tau=2.0, decay_kind="first-kind")
    path = tmp_path / "id.formeps"
    save_transformation(path, eps)
    loaded = load_transformation(path)
    assert loaded.is_identity()
    assert loaded.tau == 2.0


# ---------------------------------------------------------------------------
# every container against its header: round trips and corrupted files
# ---------------------------------------------------------------------------

FORM_CONTAINERS = ((save_form_field, load_form_field),
                   (save_boundary_form, load_boundary_form))


@st.composite
def small_grids(draw):
    return GridSpec(draw(st.integers(1, 3)), draw(st.sampled_from((0.5, 1.0, 3.0))),
                    draw(st.sampled_from((2, 4, 6))))


@st.composite
def form_fields(draw):
    g = draw(small_grids())
    q = draw(st.integers(0, g.dim))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    shape = (n_components(g.dim, q),) + g.shape
    return FormField(g, q, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@st.composite
def materials(draw):
    g = draw(small_grids())
    q = draw(st.integers(0, g.dim))
    kind = draw(st.sampled_from(("identity", "scalar", "dense")))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    meta = {"tau": draw(st.sampled_from((0.0, 1.5))),
            "decay_kind": draw(st.sampled_from(("none", "first-kind"))),
            "smoothness": draw(st.integers(0, 3))}
    if kind == "scalar":
        return make_transformation(g, None, kind, hat=rng.uniform(-0.5, 0.5, g.shape),
                                   **meta)
    nc = n_components(g.dim, q)
    a = rng.uniform(-0.2, 0.2, (nc, nc) + g.shape) / nc
    return make_transformation(g, q, kind, hat=a + np.swapaxes(a, 0, 1), **meta)


def _split_file(path):
    raw = path.read_bytes()
    magic_end = raw.index(b"\n") + 1
    header_end = raw.index(b"\n", magic_end) + 1
    return raw[:magic_end], json.loads(raw[magic_end:header_end]), raw[header_end:]


def _rewrite(path, magic, header, payload):
    path.write_bytes(magic + json.dumps(header, sort_keys=True).encode() + b"\n"
                     + payload)


@settings(max_examples=30, deadline=None)
@given(e=form_fields())
def test_form_containers_roundtrip(tmp_path_factory, e):
    path = tmp_path_factory.mktemp("io") / "form"
    for save, load in FORM_CONTAINERS:
        save(path, e)
        loaded = load(path)
        assert loaded.grid == e.grid and loaded.rank == e.rank
        assert np.array_equal(loaded.data, e.data)


@settings(max_examples=30, deadline=None)
@given(e=form_fields(), cut=st.integers(0, 10 ** 6),
       extra=st.binary(min_size=1, max_size=40),
       order=st.sampled_from(("colex", "lex-decreasing", "", None)))
def test_form_containers_reject_corrupt_files(tmp_path_factory, e, cut, extra, order):
    path = tmp_path_factory.mktemp("io") / "form"
    for save, load in FORM_CONTAINERS:
        save(path, e)
        magic, header, payload = _split_file(path)
        for bad in (payload[: cut % len(payload)], payload + extra):
            _rewrite(path, magic, header, bad)
            with pytest.raises(ValueError, match="payload has"):
                load(path)
        _rewrite(path, magic, dict(header, order=order), payload)
        with pytest.raises(ValueError, match="multi-index order"):
            load(path)


@settings(max_examples=30, deadline=None)
@given(eps=materials())
def test_transformation_container_roundtrip(tmp_path_factory, eps):
    path = tmp_path_factory.mktemp("io") / "eps"
    save_transformation(path, eps)
    loaded = load_transformation(path)
    assert (loaded.grid, loaded.rank, loaded.kind) == (eps.grid, eps.rank, eps.kind)
    assert (loaded.tau, loaded.decay_kind, loaded.smoothness) == \
        (eps.tau, eps.decay_kind, eps.smoothness)
    if eps.kind == "identity":
        assert loaded.hat is None
    else:
        assert np.array_equal(loaded.hat, eps.hat)


@settings(max_examples=30, deadline=None)
@given(eps=materials(), cut=st.integers(0, 10 ** 6),
       extra=st.binary(min_size=1, max_size=40),
       kind=st.sampled_from(("bogus", "Dense", "")))
def test_transformation_container_rejects_corrupt_files(tmp_path_factory, eps, cut,
                                                        extra, kind):
    path = tmp_path_factory.mktemp("io") / "eps"
    save_transformation(path, eps)
    magic, header, payload = _split_file(path)
    bad_payloads = [payload + extra]
    if payload:
        bad_payloads.append(payload[: cut % len(payload)])
    for bad in bad_payloads:
        _rewrite(path, magic, header, bad)
        with pytest.raises(ValueError, match="payload has"):
            load_transformation(path)
    _rewrite(path, magic, dict(header, kind=kind), payload)
    with pytest.raises(ValueError, match="unknown transformation kind"):
        load_transformation(path)


def test_payload_size_error_names_both_sizes(tmp_path):
    g = GridSpec(2, 1.0, 8)
    path = tmp_path / "field.formfld"
    save_form_field(path, random_band_limited(g, 1, 3))
    magic, header, payload = _split_file(path)
    _rewrite(path, magic, header, payload[:-16])
    with pytest.raises(ValueError, match=r"payload has 2032 bytes, the header "
                                         r"declares 2048 \(shape \(2, 8, 8\)"):
        load_form_field(path)
