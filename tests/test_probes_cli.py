import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import inverse_passes
from formprobe.cli import main
from formprobe.fields import GridSpec, norm
from formprobe.manufactured import gaussian_form, random_band_limited
from formprobe.media import make_transformation, scalar_catalog
from formprobe import bridge as bridge_mod, probes
from formprobe.probes import (IDENTITIES, PROBE_BOX_HALF_LENGTH, _interior_sample,
                              _media_decays, _media_resolver, _member_spectra,
                              _member_stokes_residual,
                              _reconstruction_residual,
                              estimate_probe_interior,
                              estimate_probe_weighted, halfspace_probe,
                              run_identity_suite, validate_halfspace_member)
from formprobe.spectral import fourier_inverse
from formprobe.weights import (BOLD, DEFAULT_MAX_ORDER, ROMAN, NormSpec,
                               weighted_sobolev_norm)

# the bridge rows run at N = 3 only
NON_BRIDGE_IDENTITIES = [name for name in IDENTITIES
                         if name not in ("bridge-dictionary",
                                         "bridge-roundtrip-exact")]


def test_identity_suite_passes_and_reports_every_check():
    report = run_identity_suite(2, 24, seed=5)
    assert report.passed
    assert [c["name"] for c in report.samples] == NON_BRIDGE_IDENTITIES
    names = {c["name"] for c in report.samples}
    for expected in ("operator-algebra-RR-zero", "gaffney-identity",
                     "mirror-sqrt2-isometry", "hodge-split-resum",
                     "stokes-pairing-refinement-factor",
                     "difference-quotient-product-rule"):
        assert expected in names
    assert report.aggregates["n_pass"] == report.aggregates["n_total"]


def test_identity_suite_deterministic_bytes():
    a = run_identity_suite(2, 16, seed=3).to_json()
    b = run_identity_suite(2, 16, seed=3).to_json()
    assert a == b


@pytest.mark.parametrize("dim", [0, 1])
def test_identity_suite_rejects_dimension_below_two(dim, monkeypatch):
    # rejected before any check runs
    def no_check(*args):
        raise AssertionError("a check ran")
    monkeypatch.setattr(probes, "_check_pointwise_algebra", no_check)
    with pytest.raises(ValueError, match="dimension >= 2"):
        run_identity_suite(dim, 16)
    with pytest.raises(SystemExit) as err:
        main(["identities", "--dim", str(dim), "--grid", "16"])
    assert err.value.code == 2


def test_interior_probe_gaffney_pinned_bound():
    report = estimate_probe_interior(2, 1, 0, 0.0, "id", ensemble=8,
                                     grid_points=16, seed=1)
    assert report.flags["gaffney_pinned_bound"]
    assert report.aggregates["sup_ratio"] <= 1.5
    assert report.passed


def test_interior_probe_scalar_media_stable():
    report = estimate_probe_interior(2, 1, 1, -1.0, "scalar", ensemble=6,
                                     grid_points=16, seed=2)
    assert report.flags["ratios_finite"]
    assert report.flags["stable_under_doubling"]


def test_weighted_probe_requires_positive_tau():
    with pytest.raises(ValueError):
        estimate_probe_weighted(2, 1, 0, 0.0, tau=0.0)


def test_weighted_probe_reports_annulus_diagnostics():
    report = estimate_probe_weighted(2, 1, 0, 0.0, tau=1.0, media="scalar",
                                     ensemble=5, grid_points=16, seed=3)
    diags = report.aggregates["annulus_diagnostics"]
    assert len(diags) == 2 and all(d["holds"] for d in diags)
    assert report.flags["annulus_split_holds"]


def test_weighted_probe_tau_sweep_recorded():
    sups = []
    for tau in (0.5, 1.0, 2.0):
        report = estimate_probe_weighted(2, 1, 0, 0.0, tau=tau, media="scalar",
                                         ensemble=4, grid_points=16, seed=4)
        sups.append(report.aggregates["sup_ratio"])
    assert all(np.isfinite(s) for s in sups)  # trend informational only


def test_zero_member_ratio_convention():
    from formprobe.probes import _ratio
    assert _ratio(0.0, 0.0) == 0.0


def test_constant_field_ratio_is_one():
    # closed and co-closed zero-frequency fields: only the mean mode
    # survives and the estimate ratio collapses to 1
    from formprobe.fields import FormField, norm
    from formprobe.weights import BOLD, ROMAN, NormSpec, weighted_sobolev_norm, NormSpec, weighted_sobolev_norm
    g = GridSpec(2, 3.0, 16)
    const = FormField.from_components(g, 1, {(1,): 2.0, (2,): -0.5})
    numerator = weighted_sobolev_norm(const, NormSpec(1, 0.0, ROMAN))
    denominator = norm(const)  # dE and delta E vanish for constants
    assert numerator / denominator == pytest.approx(1.0, rel=1e-12)


def test_identity_suite_dimension_four_six_component_forms():
    report = run_identity_suite(4, 16, seed=0)
    assert report.passed
    assert report.params["exactness_grid"] == 16
    assert [c["name"] for c in report.samples] == NON_BRIDGE_IDENTITIES


def test_identity_suite_rejects_a_name_missing_from_the_table(monkeypatch):
    def unlisted(grid, exact_grid, seed):
        yield "no-such-identity", 0.0

    monkeypatch.setattr(probes, "_check_pointwise_algebra", unlisted)
    with pytest.raises(ValueError, match="no-such-identity"):
        run_identity_suite(2, 16, seed=0)


def test_halfspace_probe_flags():
    report = halfspace_probe(2, 1, 0, "id", ensemble=4, grid_points=32, seed=5)
    assert report.passed
    assert report.aggregates["worst_reconstruct_residual"] <= 1e-8


def test_halfspace_rank0_members_differ_in_more_than_scale():
    # a ratio does not change when its member is scaled, so an ensemble of
    # one member shape would report one ratio, to rounding, however large
    for dim in (2, 3):
        report = halfspace_probe(dim, 0, 0, "id", ensemble=4, grid_points=16,
                                 seed=14)
        assert len({round(s["ratio"], 8) for s in report.samples}) == 4, dim


RATIO_ROW = {"numerator", "denominator", "ratio", "index"}
RATIO_AGGREGATES = {"sup_ratio", "mean_ratio", "sup_ratio_refined"}
DOUBLING_FLAGS = ["ratios_finite", "stable_under_doubling"]


@pytest.mark.parametrize("run, row, aggregates, flags", [
    (lambda: estimate_probe_interior(2, 1, 0, 0.0, "id", ensemble=2,
                                     grid_points=16, seed=1),
     RATIO_ROW, RATIO_AGGREGATES, DOUBLING_FLAGS + ["gaffney_pinned_bound"]),
    (lambda: estimate_probe_weighted(2, 1, 0, 0.0, tau=1.0, media="scalar",
                                     ensemble=2, grid_points=16, seed=1),
     RATIO_ROW, RATIO_AGGREGATES | {"annulus_diagnostics"},
     DOUBLING_FLAGS + ["annulus_split_holds", "media_decays"]),
    (lambda: halfspace_probe(2, 1, 0, "scalar", ensemble=2, grid_points=32,
                             seed=1),
     RATIO_ROW | {"trace_norm_rel", "reconstruct_residual", "stokes_residual"},
     RATIO_AGGREGATES | {"worst_reconstruct_residual", "worst_stokes_residual"},
     DOUBLING_FLAGS + ["traces_vanish", "reconstruction_consistent",
                       "stokes_residual_small"]),
], ids=["interior", "weighted", "halfspace"])
def test_estimate_probe_report_fields(run, row, aggregates, flags):
    # the flags keep the order the CLI prints them in
    report = run()
    assert len(report.samples) == 2
    assert set(report.samples[0]) == row
    assert set(report.aggregates) == aggregates
    assert set(report.refinement) == {"grid", "grid_refined", "sup_drift"}
    assert list(report.flags) == flags


def test_halfspace_member_checks_reuse_the_member_spectra(fft_calls):
    # a default member: N = 3, rank 1, n = 48, scalar media
    grid = GridSpec(3, PROBE_BOX_HALF_LENGTH, 48)
    eps = _media_resolver("scalar", 1, "interior", 1.0)[1](grid)
    e = gaussian_form(grid, 1, 0, poly_degree=2, trace_free=True).field()
    hat, de_hat, delta_eps_hat = _member_spectra(e, eps)
    fft_calls.clear()
    de = fourier_inverse(de_hat)
    rec = _reconstruction_residual(e, eps, hat, de, delta_eps_hat)
    stokes = _member_stokes_residual(e, de)
    # three partials, dE and delta(eps E) inverted, then one forward and
    # inverse pair for delta(dE), all on the real route; each inverse is
    # its passes
    assert sorted(fft_calls) == sorted(inverse_passes(3, True) * 6 + ["rfftn"])
    assert rec <= 1e-8 and stokes <= 1e-6


def test_spectral_identities_reuse_the_live_spectrum(fft_calls):
    # while F(E) is held, every operator on E reads it instead of
    # transforming E again: 55 forward transforms at N = 3, against 90
    # when each call made its own
    fft_calls.clear()
    list(probes._check_spectral(GridSpec(3, 3.0, 8), 0))
    assert fft_calls.count("rfftn") == 55
    assert len(fft_calls) == 247


def test_weight_checks_transform_each_norm_field_once(fft_calls):
    # per commutator member one forward transform of E and one per weight;
    # the norm-ordering members are transformed once each, for all their
    # norms (their spectrum held through the loop): 14 forward transforms,
    # against 30 when each norm made its own
    list(probes._check_weights(3, 0))
    assert fft_calls.count("rfftn") == 14


def test_halfspace_member_rejection():
    g = GridSpec(2, 3.0, 16)
    bad = random_band_limited(g, 1, 3)  # generic: nonzero trace
    with pytest.raises(ValueError, match="trace"):
        validate_halfspace_member(bad)


def test_media_option_resolution():
    g = GridSpec(2, 3.0, 16)
    spelling, on_grid = _media_resolver("id", 1, "interior", 1.0)
    assert spelling == "id" and on_grid(g).is_identity()
    # scalar is one fixed catalog entry per variant, spelled as typed
    for variant, name, params in (
            ("interior", "gauss_well", {}),
            ("weighted", "radial_power", {"amplitude": 0.5, "tau": 2.5})):
        spelling, on_grid = _media_resolver("scalar", 1, variant, 2.5)
        assert spelling == "scalar"
        assert on_grid(g).hat.tobytes() == scalar_catalog(g, name, **params).hat.tobytes()
    # a catalog medium is rebuilt on any grid, of any dimension
    spelling, on_grid = _media_resolver("gauss_well:amplitude=0.5", 1, "weighted", 2.5)
    assert spelling == "gauss_well:amplitude=0.5,width=1.0"
    for other in (GridSpec(2, 3.0, 32), GridSpec(3, 1.0, 8)):
        assert np.array_equal(on_grid(other).hat,
                              scalar_catalog(other, "gauss_well", amplitude=0.5).hat)
    with pytest.raises(ValueError):
        _media_resolver("granite", 1, "interior", 1.0)


def test_halfspace_member_transform_budget(fft_calls):
    # a member is a closed form evaluated at the nodes, with no transform;
    # its ratio row takes one real forward transform, and one more of
    # eps E with a material
    grid = GridSpec(3, PROBE_BOX_HALF_LENGTH, 16)
    fft_calls.clear()
    e = gaussian_form(grid, 1, 0, poly_degree=2, trace_free=True).field()
    assert fft_calls == []
    for media, budget in (("id", ["rfftn"]), ("scalar", ["rfftn", "rfftn"])):
        eps = _media_resolver(media, 1, "interior", 1.0)[1](grid)
        fft_calls.clear()
        _interior_sample(e, eps, 1, 0.0, ROMAN)
        assert fft_calls == budget, media


def _row_from_member_spectra(e, eps, order, weight, scale):
    """The ratio row assembled from the three spectra held together."""
    hat, de, delta_eps = _member_spectra(e, eps)
    data_weight = weight + 1 if scale == BOLD else weight
    numerator = weighted_sobolev_norm(hat, NormSpec(order + 1, weight, scale))
    denominator = norm(e, weight)
    for spectrum in (de, delta_eps):
        if spectrum is not None:
            denominator += weighted_sobolev_norm(
                spectrum, NormSpec(order, data_weight, scale))
    return {"numerator": numerator, "denominator": denominator,
            "ratio": numerator / denominator}


@pytest.mark.parametrize("media", ("id", "scalar"))
def test_lean_sample_row_equals_the_row_from_held_spectra(media):
    grid = GridSpec(3, PROBE_BOX_HALF_LENGTH, 16)
    for rank in range(4):
        e = gaussian_form(grid, rank, 5 + rank, decay=3.0).field()
        eps = _media_resolver(media, rank, "interior", 1.0)[1](grid)
        for scale, weight in ((ROMAN, 0.0), (BOLD, 0.5)):
            expected = _row_from_member_spectra(e, eps, 0, weight, scale)
            lean, none = _interior_sample(e, eps, 0, weight, scale)
            kept, spectra = _interior_sample(e, eps, 0, weight, scale, keep=True)
            assert lean == expected and kept == expected, (rank, scale)
            assert none is None
            for got, held in zip(spectra, _member_spectra(e, eps)):
                assert (got is None and held is None) or \
                    got.data.tobytes() == held.data.tobytes()


def test_unchecked_halfspace_sample_holds_one_spectrum_at_a_time():
    # F(E), F(dE) and F(delta(eps E)) are each about the member's size;
    # holding all three took over five times the member's bytes
    grid = GridSpec(3, PROBE_BOX_HALF_LENGTH, 48)
    eps = _media_resolver("scalar", 1, "interior", 1.0)[1](grid)
    e = gaussian_form(grid, 1, 0, poly_degree=2, trace_free=True).field()
    row, _ = _interior_sample(e, eps, 0, 0.0, ROMAN)  # builds the media caches
    tracemalloc.start()
    try:
        again, _ = _interior_sample(e, eps, 0, 0.0, ROMAN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == row
    assert peak <= 3 * e.data.nbytes


def test_probe_report_csv(tmp_path):
    report = estimate_probe_interior(2, 0, 0, 0.0, "id", ensemble=3,
                                     grid_points=16, seed=6)
    csv_path = tmp_path / "samples.csv"
    report.write_csv(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 4  # header + 3 samples
    assert "ratio" in lines[0]


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

def test_cli_identities_deterministic_json(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["identities", "--dim", "2", "--grid", "16", "--seed", "1",
                 "--out", str(out1)]) == 0
    assert main(["identities", "--dim", "2", "--grid", "16", "--seed", "1",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    captured = capsys.readouterr()
    assert "PASS" in captured.out


def test_cli_estimate_writes_report_and_csv(tmp_path):
    out = tmp_path / "report.json"
    csv_path = tmp_path / "samples.csv"
    code = main(["estimate", "--variant", "interior", "--dim", "2",
                 "--rank", "1", "--order", "0", "--weight", "0",
                 "--media", "id", "--ensemble", "4", "--grid", "16",
                 "--seed", "2", "--out", str(out), "--csv", str(csv_path)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["probe"] == "estimate-interior"
    assert len(report["samples"]) == 4
    assert csv_path.exists()


def test_cli_estimate_halfspace_and_weighted(tmp_path):
    assert main(["estimate", "--variant", "halfspace", "--dim", "2",
                 "--rank", "0", "--order", "0", "--media", "scalar",
                 "--ensemble", "3", "--grid", "32", "--seed", "3"]) == 0
    assert main(["estimate", "--variant", "weighted", "--dim", "2",
                 "--rank", "1", "--order", "0", "--weight", "0",
                 "--tau", "1.0", "--media", "scalar", "--ensemble", "3",
                 "--grid", "16", "--seed", "3"]) == 0


@pytest.mark.parametrize("variant, option", [
    ("interior", "gauss_well"),
    ("weighted", "radial_power:amplitude=0.5,tau=1"),
    ("halfspace", "gauss_well:amplitude=1,width=1")])
def test_cli_estimate_scalar_media_is_its_catalog_entry(variant, option, tmp_path):
    # the same medium under its two names: every report field but the
    # name itself is the same
    reports = {}
    for media in ("scalar", option):
        out = tmp_path / "report.json"
        grid = [] if variant == "halfspace" else ["--grid", "16"]
        assert main(["estimate", "--variant", variant, "--dim", "2",
                     "--media", media, "--ensemble", "2", "--seed", "3",
                     "--out", str(out)] + grid) == 0
        reports[media] = json.loads(out.read_text())
        del reports[media]["params"]["media"]
    assert reports[option] == reports["scalar"]


def test_cli_rejected_arguments_exit_with_status_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["estimate", "--variant", "weighted", "--dim", "2", "--tau", "0",
              "--grid", "16", "--ensemble", "2"])
    assert err.value.code == 2
    assert capsys.readouterr().err == ("formprobe: error: the weighted estimate "
                                       "requires decay order tau > 0\n")


@pytest.mark.parametrize("variant, option, value", [("weighted", "--tau", "inf"),
                                                   ("weighted", "--tau", "nan"),
                                                   ("interior", "--weight", "nan"),
                                                   ("weighted", "--weight", "-inf")])
def test_cli_non_finite_weight_and_tau_exit_with_status_two(variant, option,
                                                            value, capsys):
    with pytest.raises(SystemExit) as err:
        main(["estimate", "--variant", variant, "--dim", "2", "--grid", "16",
              "--ensemble", "2", "--media", "id", f"{option}={value}"])
    assert err.value.code == 2
    assert capsys.readouterr().err == (f"formprobe: error: {option} must be a "
                                       f"finite number, got {float(value)}\n")


@pytest.mark.parametrize("variant", ("interior", "weighted", "halfspace"))
@pytest.mark.parametrize("order", ("3", "-1"))
def test_cli_order_outside_the_supported_range_exits_with_status_two(variant, order,
                                                                     capsys):
    # the numerator takes order + 1 derivatives, at most DEFAULT_MAX_ORDER
    with pytest.raises(SystemExit) as err:
        main(["estimate", "--variant", variant, "--dim", "2", "--order", order,
              "--grid", "16", "--ensemble", "2"])
    assert err.value.code == 2
    assert capsys.readouterr().err == (f"formprobe: error: --order {order} is "
                                       f"outside 0..{DEFAULT_MAX_ORDER - 1}\n")


@pytest.mark.parametrize("variant", ("interior", "weighted", "halfspace"))
@pytest.mark.parametrize("ensemble", ("0", "-3"))
def test_cli_empty_ensemble_exits_with_status_two(variant, ensemble, tmp_path,
                                                  capsys):
    csv_path = tmp_path / "samples.csv"
    with pytest.raises(SystemExit) as err:
        main(["estimate", "--variant", variant, "--dim", "2", "--grid", "16",
              "--ensemble", ensemble, "--csv", str(csv_path)])
    assert err.value.code == 2
    assert "at least one member" in capsys.readouterr().err
    assert not csv_path.exists()


def test_media_decays_rejects_a_medium_declared_of_higher_order():
    # the order a probe declares (its tau) is checked against the closed form
    g = GridSpec(3, PROBE_BOX_HALF_LENGTH, 32)
    order_one = scalar_catalog(g, "radial_power", amplitude=0.5, tau=1.0)
    assert _media_decays(order_one, 1.0)
    assert not _media_decays(order_one, 2.0)
    # the same closed form built without the catalog keeps its order
    rebuilt = make_transformation(g, None, "scalar",
                                  hat_calculus=order_one.hat_calculus)
    assert not _media_decays(rebuilt, 2.0)
    assert _media_decays(make_transformation(g, 1, "identity"), 2.0)


@pytest.mark.parametrize("tau", (1, 2))
def test_cli_weighted_fails_a_catalog_medium_of_lower_order(tau, capsys):
    argv = ["estimate", "--variant", "weighted", "--dim", "2", "--grid", "16",
            "--media", f"radial_power:amplitude=0.5,tau={tau}", "--ensemble", "2"]
    assert main(argv + ["--tau", str(tau)]) == 0
    assert "PASS media_decays" in capsys.readouterr().out
    assert main(argv + ["--tau", str(tau + 1)]) == 1
    out = capsys.readouterr().out
    assert "FAIL media_decays" in out and out.count("FAIL") == 1


@pytest.mark.parametrize("variant", ("interior", "weighted", "halfspace"))
@pytest.mark.parametrize("rank", ("3", "-1"))
def test_cli_rank_outside_the_dimension_exits_with_status_two(variant, rank,
                                                              capsys):
    with pytest.raises(SystemExit) as err:
        main(["estimate", "--variant", variant, "--dim", "2", "--rank", rank,
              "--grid", "16", "--ensemble", "2"])
    assert err.value.code == 2
    assert capsys.readouterr().err == (f"formprobe: error: rank {rank} is "
                                       f"outside 0..2\n")


def test_cli_halfspace_default_grid_resolves_material_product():
    # without --grid the halfspace variant picks the finer default that
    # keeps the scalar-media reconstruction inputs resolved
    assert main(["estimate", "--variant", "halfspace", "--dim", "2",
                 "--rank", "1", "--order", "0", "--media", "scalar",
                 "--ensemble", "2", "--seed", "2"]) == 0


def test_cli_bridge_check(capsys):
    assert main(["bridge", "--grid", "16", "--seed", "1"]) == 0
    captured = capsys.readouterr()
    assert "PASS" in captured.out


@pytest.mark.parametrize("variant, option", [("interior", "--tau"),
                                             ("halfspace", "--weight"),
                                             ("halfspace", "--tau")])
def test_cli_estimate_rejects_options_its_variant_does_not_read(variant, option,
                                                                capsys):
    with pytest.raises(SystemExit) as err:
        main(["estimate", "--variant", variant, option, "9", "--dim", "2",
              "--grid", "16", "--ensemble", "1"])
    assert err.value.code == 2
    assert f"{option} is not read by the {variant} variant" in capsys.readouterr().err


@pytest.mark.parametrize("option, path", [("--out", "report.json"),
                                          ("--csv", "samples.csv")])
def test_cli_unwritable_output_exits_with_status_two(option, path, tmp_path,
                                                     capsys):
    missing = str(tmp_path / "missing" / path)
    runs = [["estimate", "--variant", "interior", "--dim", "2", "--grid", "8",
             "--ensemble", "1", option, missing]]
    if option == "--out":
        runs.append(["identities", "--dim", "2", "--grid", "8", option, missing])
    for argv in runs:
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "No such file or directory" in capsys.readouterr().err


def test_cli_failing_identity_lines_show_the_bound_needed(monkeypatch, capsys):
    rows = {"_check_spectral": [("gaffney-identity", 0.5)],
            "_check_media": [("media-inverse-roundtrip", 0.0)],
            "_check_stokes": [("stokes-pairing-refinement-factor", 1.756)]}
    for name in ("_check_pointwise_algebra", "_check_spectral", "_check_weights",
                 "_check_media", "_check_halfspace", "_check_stokes",
                 "_check_reconstruction", "_check_decomposition"):
        monkeypatch.setattr(probes, name,
                            lambda *args, rows=rows.get(name, []): iter(rows))
    assert main(["identities", "--dim", "2", "--grid", "8"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL gaffney-identity: residual 5.000e-01, needs <= 1.0e-10",
        "PASS media-inverse-roundtrip: residual 0.000e+00 <= 1.0e-12",
        "FAIL stokes-pairing-refinement-factor: residual 1.756e+00, needs >= 8.0e+00",
        "1/3 identities pass"]


# a NaN fails its verdict: max() would keep the value it is compared with

def test_identity_suite_fails_a_nan_residual(monkeypatch):
    for name in ("_check_pointwise_algebra", "_check_spectral", "_check_weights",
                 "_check_media", "_check_halfspace", "_check_stokes",
                 "_check_reconstruction", "_check_decomposition"):
        monkeypatch.setattr(probes, name, lambda *args: iter(()))
    monkeypatch.setattr(probes, "_check_bridge",
                        lambda seed: iter([("bridge-dictionary", math.nan)]))
    report = run_identity_suite(3, 16)
    (row,) = report.samples
    assert math.isnan(row["residual"]) and not row["pass"]
    assert not report.passed


def test_halfspace_probe_fails_nan_residuals(monkeypatch):
    monkeypatch.setattr(probes, "_reconstruction_residual", lambda *args: math.nan)
    monkeypatch.setattr(probes, "_member_stokes_residual", lambda *args: math.nan)
    report = halfspace_probe(2, 1, 0, ensemble=2, grid_points=16)
    assert not report.flags["reconstruction_consistent"]
    assert not report.flags["stokes_residual_small"]


def test_refined_nan_ratio_is_not_stable_under_doubling():
    def sample(grid, eps, i, checked):  # member 1 on the doubled grid is NaN
        return {"ratio": 1.0 if checked or i == 0 else math.nan}

    params = {"dim": 2, "rank": 1, "order": 0, "media": "id", "ensemble": 2,
              "grid": 8, "seed": 0}
    report, _ = probes._run_probe("test", params, "interior", 1.0, sample)
    assert report.flags["ratios_finite"]
    assert not report.flags["stable_under_doubling"]


def test_bridge_check_fails_a_nan_residual(monkeypatch, capsys):
    monkeypatch.setattr(bridge_mod, "bridge_residuals",
                        lambda v: {"d_is_curl": 0.0, "d_is_div": math.nan})
    assert main(["bridge", "--grid", "16"]) == 1
    assert "FAIL dictionary rows" in capsys.readouterr().out
    values = dict(probes._check_bridge(0))
    assert math.isnan(values["bridge-dictionary"])
