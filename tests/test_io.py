import inspect
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formprobe.cli import main
from formprobe.fields import GridSpec
from formprobe.io import (CATALOG_PARAMS, MEDIA_MAGIC, load_transformation,
                          save_transformation)
from formprobe.manufactured import random_dense_media
from formprobe.media import make_transformation, reflected_transform, scalar_catalog

ESTIMATE = ["estimate", "--variant", "interior", "--dim", "2", "--grid", "16",
            "--ensemble", "2"]


def _header(path):
    raw = path.read_bytes()
    assert raw.startswith(MEDIA_MAGIC) and raw.endswith(b"\n")
    return json.loads(raw[len(MEDIA_MAGIC):])


def _write_header(path, header):
    path.write_bytes(MEDIA_MAGIC + json.dumps(header).encode() + b"\n")


def _saved_well(path):
    g = GridSpec(2, 3.0, 16)
    save_transformation(path, scalar_catalog(g, "gauss_well", amplitude=0.5),
                        catalog_tag="gauss_well", catalog_params={"amplitude": 0.5})
    return _header(path)


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
    assert _header(path) == {"N": 2, "L": 3.0, "n": 16, "catalog": "gauss_well",
                             "params": {"amplitude": 0.5, "width": 1.0, "tau": 1.0}}
    loaded = load_transformation(path)
    assert loaded.kind == "scalar"
    assert np.array_equal(loaded.hat, eps.hat)
    # catalog reload preserves the closed-form derivative entries
    assert loaded.hat_calculus is not None


@pytest.mark.parametrize("tag, tau", [("radial_power", 2.0), ("gauss_well", 3.0)])
def test_catalog_file_loads_with_its_header_tau(tmp_path, tag, tau):
    # params without tau: the medium's tau is written into the header params
    g = GridSpec(2, 3.0, 16)
    eps = scalar_catalog(g, tag, amplitude=0.5, tau=tau)
    path = tmp_path / "eps.formeps"
    save_transformation(path, eps, catalog_tag=tag,
                        catalog_params={"amplitude": 0.5})
    assert _header(path)["params"]["tau"] == tau
    loaded = load_transformation(path)
    assert loaded.tau == tau
    assert np.array_equal(loaded.hat, eps.hat)


@pytest.mark.parametrize("key, value", [("m", 1), ("decay", "first-kind")])
def test_catalog_file_with_foreign_class_is_rejected(tmp_path, key, value):
    # files hold no decay class: a header that still declares one is rejected
    path = tmp_path / "eps.formeps"
    _write_header(path, dict(_saved_well(path), **{key: value}))
    with pytest.raises(ValueError, match="does not hold exactly the keys"):
        load_transformation(path)


def test_catalog_params_are_the_catalog_keywords():
    keywords = inspect.signature(scalar_catalog).parameters
    assert CATALOG_PARAMS == {name for name, p in keywords.items()
                              if p.kind == p.KEYWORD_ONLY}


def test_save_refuses_an_entry_that_does_not_rebuild_the_medium(tmp_path):
    g = GridSpec(2, 3.0, 16)
    well = scalar_catalog(g, "gauss_well", amplitude=0.5)
    path = tmp_path / "eps.formeps"
    refused = [(well, "gauss_well", None),          # would load at amplitude 1
               (well, "radial_power", {"amplitude": 0.5}),
               (well, "gauss_well", {"amplitude": 0.5, "tau": 2.0}),
               (make_transformation(g, 1, "identity"), "gauss_well", None),
               (random_dense_media(g, 1, 3), "gauss_well", None),
               # reflected on nodes that are not mirror images in floating point
               (reflected_transform(scalar_catalog(GridSpec(2, 3.0, 18), "gauss_well",
                                                   amplitude=0.5)),
                "gauss_well", {"amplitude": 0.5})]
    for eps, tag, params in refused:
        with pytest.raises(ValueError, match="does not rebuild"):
            save_transformation(path, eps, catalog_tag=tag, catalog_params=params)
        assert not path.exists()


@pytest.mark.parametrize("header, message", [
    ({"L": 3.0, "n": 16, "catalog": "gauss_well", "params": {}}, "keys"),
    ([2, 3.0, 16], "catalog entry"),
    ({"N": "2", "L": 3.0, "n": 16, "catalog": "gauss_well", "params": {}}, "keys"),
    ({"N": 2, "L": 3.0, "n": 16, "catalog": "gauss_well", "params": {"amp": 1.0}},
     "'amp'"),
    # json writes NaN, which no JSON number is; it would pass admissibility
    ({"N": 2, "L": 3.0, "n": 16, "catalog": "gauss_well",
      "params": {"amplitude": float("nan")}}, "NaN")],
    ids=["missing-N", "list", "string-N", "unknown-param", "nan-param"])
def test_cli_malformed_media_header_exits_with_status_two(tmp_path, capsys, header,
                                                          message):
    path = tmp_path / "bad.formeps"
    _write_header(path, header)
    with pytest.raises(SystemExit) as err:
        main(ESTIMATE + ["--media", f"file:{path}"])
    assert err.value.code == 2
    assert message in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the container against its header: round trips and corrupted files
# ---------------------------------------------------------------------------

@st.composite
def catalog_media(draw):
    g = GridSpec(draw(st.integers(1, 3)), draw(st.sampled_from((0.5, 1.0, 3.0))),
                 draw(st.sampled_from((2, 4, 6))))
    tag = draw(st.sampled_from(("gauss_well", "radial_power")))
    numbers = st.floats(0.1, 3.0)
    params = {"amplitude": draw(st.floats(-0.9, 2.0)), "width": draw(numbers),
              "tau": draw(numbers)}
    return g, tag, params


@settings(max_examples=30, deadline=None)
@given(medium=catalog_media())
def test_transformation_container_roundtrip(tmp_path_factory, medium):
    g, tag, params = medium
    eps = scalar_catalog(g, tag, **params)
    path = tmp_path_factory.mktemp("io") / "eps"
    save_transformation(path, eps, catalog_tag=tag, catalog_params=params)
    loaded = load_transformation(path)
    assert (loaded.grid, loaded.kind, loaded.tau) == (g, "scalar", params["tau"])
    assert loaded.hat.tobytes() == eps.hat.tobytes()


@settings(max_examples=30, deadline=None)
@given(medium=catalog_media(), cut=st.integers(0, 10 ** 6),
       extra=st.binary(min_size=1, max_size=40))
def test_transformation_container_rejects_corrupt_files(tmp_path_factory, medium,
                                                        cut, extra):
    g, tag, params = medium
    path = tmp_path_factory.mktemp("io") / "eps"
    save_transformation(path, scalar_catalog(g, tag, **params), catalog_tag=tag,
                        catalog_params=params)
    raw = path.read_bytes()
    path.write_bytes(raw[: cut % len(raw)])   # a truncated header
    with pytest.raises(ValueError):
        load_transformation(path)
    path.write_bytes(raw + extra)               # trailing bytes
    with pytest.raises(ValueError, match=f"{len(extra)} bytes follow"):
        load_transformation(path)


@settings(max_examples=30, deadline=None)
@given(medium=catalog_media(), data=st.data())
def test_transformation_container_rejects_mismatched_headers(tmp_path_factory,
                                                             medium, data):
    # a dropped key, an extra key and a value of the wrong JSON type
    g, tag, params = medium
    path = tmp_path_factory.mktemp("io") / "eps"
    save_transformation(path, scalar_catalog(g, tag, **params), catalog_tag=tag,
                        catalog_params=params)
    header = _header(path)
    dropped = dict(header)
    del dropped[data.draw(st.sampled_from(sorted(header)))]
    extra = dict(header, **{data.draw(st.sampled_from(("q", "kind", "tau",
                                                       "endian"))): 1})
    key = data.draw(st.sampled_from(sorted(header)))
    wrong = {"N": ["2", 2.0, True, None], "L": ["3.0", True, None, [3.0]],
             "n": ["16", 16.0, False], "catalog": [1, None, ["gauss_well"]],
             "params": [[], "amplitude", None]}[key]
    retyped = dict(header, **{key: data.draw(st.sampled_from(wrong))})
    param = data.draw(st.sampled_from(sorted(params)))
    bad_param = dict(header, params=dict(params, **{param: data.draw(
        st.sampled_from(("0.5", True, None, [0.5])))}))
    unknown_param = dict(header, params=dict(params, decay=1.0))
    for bad in (dropped, extra, retyped, bad_param, unknown_param):
        _write_header(path, bad)
        with pytest.raises(ValueError):
            load_transformation(path)
