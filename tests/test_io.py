import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import rel_gap
from formprobe.cli import main
from formprobe.fields import GridSpec, n_components
from formprobe.io import load_transformation, save_transformation
from formprobe.manufactured import random_band_limited, random_dense_media
from formprobe.media import make_transformation, scalar_catalog


def _split_file(path):
    raw = path.read_bytes()
    magic_end = raw.index(b"\n") + 1
    header_end = raw.index(b"\n", magic_end) + 1
    return raw[:magic_end], json.loads(raw[magic_end:header_end]), raw[header_end:]


def _rewrite(path, magic, header, payload):
    path.write_bytes(magic + json.dumps(header, sort_keys=True).encode() + b"\n"
                     + payload)


def test_big_endian_payload_honored(tmp_path):
    eps = random_dense_media(GridSpec(2, 1.0, 8), 1, 9)
    path = tmp_path / "big.formeps"
    save_transformation(path, eps)
    magic, header, _ = _split_file(path)
    _rewrite(path, magic, dict(header, endian="big"),
             np.ascontiguousarray(eps.hat, ">f8").tobytes())
    loaded = load_transformation(path)
    assert np.array_equal(loaded.hat, eps.hat)


def test_unknown_endian_tag_rejected(tmp_path, capsys):
    # read as big-endian, a misspelt tag turned 0.1 at every node into
    # -1.5e-180, which passes admissibility
    g = GridSpec(2, 3.0, 16)
    path = tmp_path / "typo.formeps"
    save_transformation(path, make_transformation(g, None, "scalar",
                                                  hat=np.full(g.shape, 0.1)))
    magic, header, payload = _split_file(path)
    _rewrite(path, magic, dict(header, endian="littel"), payload)
    with pytest.raises(ValueError, match="'littel'"):
        load_transformation(path)
    with pytest.raises(SystemExit) as err:
        main(["estimate", "--variant", "interior", "--dim", "2", "--grid", "16",
              "--media", f"file:{path}", "--ensemble", "2"])
    assert err.value.code == 2
    assert "'littel'" in capsys.readouterr().err


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk"
    path.write_bytes(b"NOTAFORM\n{}")
    with pytest.raises(ValueError, match="magic"):
        load_transformation(path)


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


@pytest.mark.parametrize("tag, tau", [("radial_power", 2.0), ("gauss_well", 3.0)])
def test_catalog_file_loads_with_its_header_tau(tmp_path, tag, tau):
    # params without tau: the medium is rebuilt with the tau of the header
    g = GridSpec(2, 3.0, 16)
    eps = scalar_catalog(g, tag, amplitude=0.5, tau=tau)
    path = tmp_path / "eps.formeps"
    save_transformation(path, eps, catalog_tag=tag,
                        catalog_params={"amplitude": 0.5})
    loaded = load_transformation(path)
    assert loaded.tau == tau
    assert np.array_equal(loaded.hat, eps.hat)


@pytest.mark.parametrize("key, value", [("m", 1), ("decay", "first-kind")])
def test_catalog_file_with_foreign_class_is_rejected(tmp_path, key, value):
    path = tmp_path / "eps.formeps"
    save_transformation(path, scalar_catalog(GridSpec(2, 3.0, 16), "radial_power"),
                        catalog_tag="radial_power")
    magic, header, payload = _split_file(path)
    _rewrite(path, magic, dict(header, **{key: value}), payload)
    with pytest.raises(ValueError, match=f"the header declares {value!r}"):
        load_transformation(path)


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
# the container against its header: round trips and corrupted files
# ---------------------------------------------------------------------------

@st.composite
def small_grids(draw):
    return GridSpec(draw(st.integers(1, 3)), draw(st.sampled_from((0.5, 1.0, 3.0))),
                    draw(st.sampled_from((2, 4, 6))))


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


@settings(max_examples=30, deadline=None)
@given(eps=materials(), grow=st.integers(1, 3))
def test_transformation_container_rejects_mismatched_headers(tmp_path_factory, eps,
                                                             grow):
    # a header declaring another grid than the one the payload holds
    assume(not eps.is_identity())
    path = tmp_path_factory.mktemp("io") / "eps"
    save_transformation(path, eps)
    magic, header, payload = _split_file(path)
    for key, value in (("N", header["N"] + grow), ("n", header["n"] + 2 * grow)):
        _rewrite(path, magic, dict(header, **{key: value}), payload)
        with pytest.raises(ValueError, match="payload has"):
            load_transformation(path)


def test_payload_size_error_names_both_sizes(tmp_path):
    path = tmp_path / "dense.formeps"
    save_transformation(path, random_dense_media(GridSpec(2, 1.0, 8), 1, 3))
    magic, header, payload = _split_file(path)
    _rewrite(path, magic, header, payload[:-16])
    with pytest.raises(ValueError, match=r"payload has 2032 bytes, the header "
                                         r"declares 2048 \(shape \(2, 2, 8, 8\)"):
        load_transformation(path)
