"""Covariance spectra, traces and Gaussian increment sampling."""

import re

import numpy as np
import pytest

from splf import noise, rng
from splf import spectral as sp


class TestValidation:
    def test_zero_spectrum_valid(self):
        spec = noise.ExplicitSpectrum(entries=())
        assert noise.validate_spectrum(spec, 2) is spec
        assert noise.trace_truncated(spec, 3, 2) == 0.0

    def test_power_divergent_rejected(self):
        with pytest.raises(noise.SpectrumError, match="diverges"):
            noise.validate_spectrum(noise.PowerLawSpectrum(c=1.0, s=1.0), 2)

    def test_power_threshold(self):
        noise.validate_spectrum(noise.PowerLawSpectrum(c=1.0, s=2.01), 2)
        with pytest.raises(noise.SpectrumError):
            noise.validate_spectrum(noise.PowerLawSpectrum(c=1.0, s=2.0), 2)
        with pytest.raises(noise.SpectrumError):
            noise.validate_spectrum(noise.PowerLawSpectrum(c=1.0, s=2.4), 3)

    def test_zero_amplitude_any_decay(self):
        noise.validate_spectrum(noise.PowerLawSpectrum(c=0.0, s=0.1), 2)

    @pytest.mark.parametrize("c,s,field", [
        (float("nan"), 3.0, "amplitude c=nan"), (float("inf"), 3.0, "amplitude c=inf"),
        (-float("inf"), 3.0, "amplitude c=-inf"), (-0.5, 3.0, "amplitude c=-0.5"),
        (0.0, float("nan"), "decay s=nan"), (0.0, -float("inf"), "decay s=-inf"),
        (1.0, float("inf"), "decay s=inf"), ("c", 3.0, "amplitude c='c'"),
        (1.0, "3", "decay s='3'")])
    def test_power_non_finite_rejected(self, c, s, field):
        # a string raised a TypeError from the comparison that named no field
        with pytest.raises(noise.SpectrumError, match=field):
            noise.validate_spectrum(noise.PowerLawSpectrum(c=c, s=s), 2)

    def test_zero_wave_vector_entry_rejected(self):
        # the mean-zero space has no z = 0 element, so the entry would be
        # dropped without a word
        spec = noise.ExplicitSpectrum.from_items([((1, 0), 1, 0.5), ((0, 0), 2, 0.3)])
        with pytest.raises(noise.SpectrumError,
                           match=r"entry \(\(0, 0\), 2, 0.3\) is at z = 0"):
            noise.validate_spectrum(spec, 2)

    @pytest.mark.parametrize("items", [
        [((1, 0), 1, 0.5), ((-1, 0), 1, 0.2)],
        [((1, 0), 1, 0.5), ((1, 0), 1, 0.2)]])
    def test_entries_folding_onto_one_element_rejected(self, items):
        # the last of the two used to win: a trace of 0.2, not 0.7
        spec = noise.ExplicitSpectrum.from_items(items)
        with pytest.raises(noise.SpectrumError, match=(
                r"entries \(\(1, 0\), 1, 0.5\) and \(\(1, 0\), 1, 0.2\) fold")):
            noise.validate_spectrum(spec, 2)
        # the same wave vector on another branch is another element
        noise.validate_spectrum(noise.ExplicitSpectrum.from_items(
            [((1, 0), 1, 0.5), ((-1, 0), 2, 0.2)]), 2)

    @pytest.mark.parametrize("z", [(1.5, 0), (0.5, 0), ("a", 0)])
    def test_non_integer_wave_vector_entry_rejected(self, z):
        # int() used to put gamma on mode (1, 0), or to report (0.5, 0) as
        # an entry at z = 0; ("a", 0) raised the ValueError of float()
        entry = re.escape(f"entry ({z}, 1, 0.5) has a non-integer wave vector")
        with pytest.raises(noise.SpectrumError, match=entry):
            noise.validate_spectrum(noise.ExplicitSpectrum(entries=((z, 1, 0.5),)), 2)
        with pytest.raises(noise.SpectrumError, match=entry):
            noise.ExplicitSpectrum.from_items([(z, 1, 0.5)])

    @pytest.mark.parametrize("j", [1.5, "1"])
    def test_non_integer_branch_index_entry_rejected(self, j):
        # j = 1.5 passed validation and gamma_vector failed with numpy's
        # IndexError, and from_items cast it to 1; "1" failed the range
        # check with a TypeError
        entry = re.escape(f"entry {((1, 0), j, 0.5)} has a non-integer branch index")
        with pytest.raises(noise.SpectrumError, match=entry):
            noise.validate_spectrum(noise.ExplicitSpectrum(entries=(((1, 0), j, 0.5),)), 2)
        with pytest.raises(noise.SpectrumError, match=entry):
            noise.ExplicitSpectrum.from_items([((1, 0), j, 0.5)])
        # a whole-number float names its branch
        spec = noise.ExplicitSpectrum(entries=(((1, 0), 2.0, 0.5),))
        noise.validate_spectrum(spec, 2)
        assert np.array_equal(noise.gamma_vector(spec, 2, 2), noise.gamma_vector(
            noise.ExplicitSpectrum.from_items([((1, 0), 2, 0.5)]), 2, 2))

    @pytest.mark.parametrize("g", ["x", "0.5", None])
    def test_non_numeric_eigenvalue_entry_rejected(self, g):
        # validate_spectrum raised numpy's TypeError and from_items the
        # ValueError of float(), or took "0.5" as 0.5
        entry = re.escape(f"entry {((1, 0), 1, g)} has a non-numeric eigenvalue")
        with pytest.raises(noise.SpectrumError, match=entry):
            noise.validate_spectrum(noise.ExplicitSpectrum(entries=(((1, 0), 1, g),)), 2)
        with pytest.raises(noise.SpectrumError, match=entry):
            noise.ExplicitSpectrum.from_items([((1, 0), 1, g)])

    def test_negative_entry_rejected(self):
        spec = noise.ExplicitSpectrum.from_items([((1, 0), 1, -0.5)])
        with pytest.raises(noise.SpectrumError, match="must be >= 0"):
            noise.validate_spectrum(spec, 2)

    def test_bad_branch_rejected(self):
        spec = noise.ExplicitSpectrum.from_items([((1, 0), 3, 0.5)])
        with pytest.raises(noise.SpectrumError):
            noise.validate_spectrum(spec, 2)


class TestTrace:
    def test_two_entry_example(self):
        spec = noise.ExplicitSpectrum.from_items(
            [((1, 0), 1, 0.5), ((0, 1), 2, 0.25)])
        assert noise.trace_truncated(spec, 1, 2) == 0.75

    def test_noncanonical_entry_folded(self):
        spec = noise.ExplicitSpectrum.from_items([((-1, 0), 1, 0.5)])
        assert noise.trace_truncated(spec, 1, 2) == 0.5

    @pytest.mark.parametrize("seed", range(4))
    def test_monotone_in_truncation(self, seed):
        r = np.random.default_rng(seed)
        spec = noise.PowerLawSpectrum(c=float(r.uniform(0.1, 2.0)),
                                      s=float(r.uniform(2.1, 4.0)))
        traces = [noise.trace_truncated(spec, n, 2) for n in range(1, 6)]
        assert all(a <= b for a, b in zip(traces, traces[1:]))

    def test_gamma_vector_order(self):
        spec = noise.ExplicitSpectrum.from_items([((0, 1), 2, 0.25)])
        g = noise.gamma_vector(spec, 1, 2)
        basis = sp.make_basis(1, 2)
        k = next(i for i, b in enumerate(basis) if b.z == (0, 1) and b.j == 2)
        assert g[k] == 0.25
        assert g.sum() == 0.25

    def test_entries_beyond_truncation_ignored(self):
        spec = noise.ExplicitSpectrum.from_items(
            [((0, 1), 2, 0.25), ((2, 1), 1, 9.0), ((0, -3), 2, 7.0)])
        g = noise.gamma_vector(spec, 1, 2)
        assert g.sum() == 0.25
        assert noise.gamma_vector(spec, 3, 2).sum() == 0.25 + 9.0 + 7.0


class TestSampling:
    def test_zero_spectrum_zero_increment(self):
        spec = noise.ExplicitSpectrum(entries=())
        g = rng.stream(1, 0, 0)
        dW = noise.sample_increment(spec, 2, 2, 0.01, g)
        assert np.all(dW == 0.0)

    def test_variance_matches_analytic(self):
        # gamma = 0.04, dt = 0.01: Var = 4e-4; sample variance of m draws of
        # N(0, v) has standard error v sqrt(2/(m-1))
        spec = noise.ExplicitSpectrum.from_items([((1, 0), 1, 0.04)])
        m = 60_000
        k = next(i for i, b in enumerate(sp.make_basis(1, 2))
                 if b.z == (1, 0) and b.j == 1)
        gam, streams = noise.gamma_vector(spec, 1, 2), rng.Streams(7)
        draws = np.array([
            noise.sample_increment(spec, 1, 2, 0.01, streams.at(0, step), gamma=gam)[k]
            for step in range(m)])
        var = draws.var(ddof=1)
        se = 4e-4 * np.sqrt(2.0 / (m - 1))
        assert abs(var - 4e-4) < 3 * se

    def test_cross_covariance_vanishes(self):
        spec = noise.PowerLawSpectrum(c=1.0, s=2.5)
        gam = noise.gamma_vector(spec, 1, 2)
        m = 40_000
        streams = rng.Streams(3)
        draws = np.array([
            noise.sample_increment(spec, 1, 2, 1.0, streams.at(0, step), gamma=gam)
            for step in range(m)])
        # correlation between distinct coordinates ~ N(0, 1/m)
        c01 = np.mean(draws[:, 0] * draws[:, 1]) / np.sqrt(gam[0] * gam[1])
        c23 = np.mean(draws[:, 2] * draws[:, 3]) / np.sqrt(gam[2] * gam[3])
        assert abs(c01) < 3 / np.sqrt(m)
        assert abs(c23) < 3 / np.sqrt(m)

    def test_dt_scaling_one_to_four(self):
        spec = noise.ExplicitSpectrum.from_items([((1, 0), 1, 0.5)])
        k = next(i for i, b in enumerate(sp.make_basis(1, 2))
                 if b.z == (1, 0) and b.j == 1)
        m = 30_000
        gam, streams = noise.gamma_vector(spec, 1, 2), rng.Streams(5)
        d1 = np.array([noise.sample_increment(spec, 1, 2, 0.01,
                                              streams.at(0, s), gamma=gam)[k]
                       for s in range(m)])
        d4 = np.array([noise.sample_increment(spec, 1, 2, 0.04,
                                              streams.at(1, s), gamma=gam)[k]
                       for s in range(m)])
        v1, v4 = d1.var(ddof=1), d4.var(ddof=1)
        ratio = v4 / v1
        # delta-method standard error of the ratio of two sample variances
        se = ratio * np.sqrt(4.0 / (m - 1))
        assert abs(ratio - 4.0) < 3 * se

    def test_determinism(self):
        spec = noise.PowerLawSpectrum(c=0.3, s=3.0)
        a = noise.sample_increment(spec, 2, 2, 0.01, rng.stream(11, 4, 9))
        b = noise.sample_increment(spec, 2, 2, 0.01, rng.stream(11, 4, 9))
        assert np.array_equal(a, b)
        c = noise.sample_increment(spec, 2, 2, 0.01, rng.stream(11, 4, 10))
        assert not np.array_equal(a, c)

    def test_increment_is_admissible_field(self):
        spec = noise.PowerLawSpectrum(c=1.0, s=2.5)
        dW = noise.sample_increment(spec, 2, 2, 0.1, rng.stream(2, 1, 0))
        f = sp.coords_to_field(dW, 2, 2)
        div, conj = sp.structural_defects(f)
        assert div < 1e-13 and conj < 1e-13

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            noise.sample_increment(noise.PowerLawSpectrum(1.0, 3.0), 1, 2,
                                   0.0, rng.stream(0, 0, 0))

    @pytest.mark.parametrize("dt", [float("nan"), float("inf")])
    def test_rejects_non_finite_dt(self, dt):
        with pytest.raises(ValueError, match="positive and finite"):
            noise.sample_increment(noise.PowerLawSpectrum(1.0, 3.0), 1, 2,
                                   dt, rng.stream(0, 0, 0))


class TestStreams:
    def test_distinct_labels_distinct_streams(self):
        a = rng.stream(1, 0, 0).standard_normal(4)
        for args in [(1, 1, 0), (1, 0, 1), (2, 0, 0)]:
            b = rng.stream(*args).standard_normal(4)
            assert not np.array_equal(a, b)

    def test_purpose_separates(self):
        a = rng.stream(1, 0, 0, rng.PURPOSE_INCREMENT).standard_normal(4)
        b = rng.stream(1, 0, 0, rng.PURPOSE_INIT).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_rejects_negative_labels(self):
        with pytest.raises(ValueError):
            rng.stream(-1, 0, 0)
