"""How a medium is read and written: the media grammar of ``--media``,
NAME[:KEY=VALUE[,KEY=VALUE...]], and its canonical spelling in a report's
``params.media``."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formprobe.cli import main
from formprobe.fields import GridSpec
from formprobe.media import CATALOG, scalar_catalog
from formprobe.probes import _media_resolver, _parse_media

ESTIMATE = ["estimate", "--variant", "interior", "--dim", "2", "--grid", "16",
            "--ensemble", "2"]


@st.composite
def catalog_media(draw):
    """A catalog name, some of its params, and one spelling of them."""
    name = draw(st.sampled_from(sorted(CATALOG)))
    keys = draw(st.lists(st.sampled_from(sorted(CATALOG[name])), unique=True))
    numbers = {"amplitude": st.floats(-0.9, 2.0), "width": st.floats(0.01, 3.0),
               "tau": st.floats(0.1, 4.0)}
    params = {key: draw(numbers[key]) for key in keys}
    spelled = ",".join(f"{key}={value!r}" for key, value in params.items())
    return name, params, f"{name}:{spelled}" if params else name


@settings(max_examples=40, deadline=None)
@given(medium=catalog_media(), points=st.sampled_from((4, 6, 16)))
def test_transformation_container_roundtrip(medium, points):
    # the spelling a report writes reads back as itself and as the same medium
    spelling, on_grid = _media_resolver(medium[2], 1, "interior", 1.0)
    again, reread = _media_resolver(spelling, 1, "interior", 1.0)
    assert again == spelling
    grid = GridSpec(2, 3.0, points)
    assert reread(grid).hat.tobytes() == on_grid(grid).hat.tobytes()


@settings(max_examples=40, deadline=None)
@given(medium=catalog_media(), points=st.sampled_from((4, 6, 16)))
def test_transformation_catalog_roundtrip(medium, points):
    # the medium an option names is bitwise the catalog's, on any grid
    name, params, option = medium
    spelling, on_grid = _media_resolver(option, 1, "interior", 1.0)
    assert _parse_media(spelling) == _parse_media(option)
    assert _parse_media(option) == (name, {**CATALOG[name], **params})
    for dim in (1, 2, 3):
        grid = GridSpec(dim, 3.0, points)
        eps = on_grid(grid)
        assert eps.hat.tobytes() == scalar_catalog(grid, name, **params).hat.tobytes()


def test_catalog_params_are_the_catalog_keywords():
    g = GridSpec(2, 3.0, 8)
    for name, defaults in CATALOG.items():
        assert _parse_media(name) == (name, defaults)
        assert np.array_equal(scalar_catalog(g, name, **defaults).hat,
                              scalar_catalog(g, name).hat)
        (other,) = {"width", "tau"} - defaults.keys()
        with pytest.raises(ValueError, match="scalar catalog takes"):
            scalar_catalog(g, name, **{other: 1.0})
    with pytest.raises(ValueError, match="scalar catalog takes"):
        scalar_catalog(g, "granite")


@pytest.mark.parametrize("option, message", [
    ("granite", "unknown media 'granite'"),
    ("file:well.formeps", "NAME[:KEY=VALUE,...]"),
    ("scalar:amplitude=2", "unknown media"),
    ("gauss_well:amp=1", "not 'amp=1'"),
    ("radial_power:width=1", "not 'width=1'"),
    ("gauss_well:width=1,width=2", "each once"),
    ("gauss_well:width=nan", "finite number"),
    ("gauss_well:amplitude=inf", "finite number"),
    ("gauss_well:width=", "finite number"),
    ("gauss_well:", "not ''")],
    ids=["unknown-name", "file", "scalar-with-keys", "unknown-key",
         "other-entry-key", "repeated-key", "nan", "inf", "empty-value",
         "empty-params"])
def test_cli_rejected_media_exit_with_status_two(option, message, capsys):
    with pytest.raises(SystemExit) as err:
        main(ESTIMATE + ["--media", option])
    assert err.value.code == 2
    assert message in capsys.readouterr().err


def _report(tmp_path, name: str, variant: str, media: str) -> bytes:
    out = tmp_path / f"{name}.json"
    argv = ["estimate", "--variant", variant, "--dim", "2", "--grid", "16",
            "--ensemble", "2", "--seed", "1", "--media", media, "--out", str(out)]
    assert main(argv) in (0, 1)
    return out.read_bytes()


@pytest.mark.parametrize("variant, spellings, canonical", [
    ("interior", ("gauss_well:width=0.5", "gauss_well:width=.5,amplitude=1"),
     "gauss_well:amplitude=1.0,width=0.5"),
    ("weighted", ("radial_power:tau=2", "radial_power:amplitude=1.0,tau=2e0"),
     "radial_power:amplitude=1.0,tau=2.0")])
def test_two_spellings_of_one_medium_give_one_report(tmp_path, variant, spellings,
                                                     canonical):
    first, second = (_report(tmp_path, f"spelling{i}", variant, media)
                     for i, media in enumerate(spellings))
    assert first == second
    assert json.loads(first)["params"]["media"] == canonical


@pytest.mark.parametrize("variant, media, spelled", [
    ("interior", "id", "id"), ("interior", "scalar", "scalar"),
    ("weighted", "scalar", "scalar"),
    ("weighted", "radial_power:tau=1.5,amplitude=0.5",
     "radial_power:amplitude=0.5,tau=1.5"),
    ("halfspace", "gauss_well:width=2", "gauss_well:amplitude=1.0,width=2.0")])
def test_a_report_reruns_from_its_own_media(tmp_path, variant, media, spelled):
    first = _report(tmp_path, "first", variant, media)
    assert json.loads(first)["params"]["media"] == spelled
    assert _report(tmp_path, "again", variant, spelled) == first
