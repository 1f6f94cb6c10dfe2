"""Beam geometry and field checks, including the waist-plane match with
the oscillator LG modes."""

import numpy as np
import pytest
from scipy.integrate import simpson

from lgwigner.beam import BeamGeometry, BeamIndex, BeamParams, beam_field, beam_geometry
from lgwigner.modes import ModeIndex, lg_mode
from lgwigner.specfun import laguerre


PARAMS = BeamParams(w0=1.5, k=8.0)


def test_rayleigh_range_definition():
    assert PARAMS.zR == 0.5 * PARAMS.k * PARAMS.w0**2


def test_geometry_at_waist():
    geom = beam_geometry(PARAMS, 0.0)
    assert geom == BeamGeometry(PARAMS.w0, 0.0, 0.0)


def test_geometry_at_rayleigh_range():
    zr = PARAMS.zR
    geom = beam_geometry(PARAMS, zr)
    assert geom.w == pytest.approx(PARAMS.w0 * np.sqrt(2.0), rel=1e-14)
    assert geom.inv_R == pytest.approx(1.0 / (2.0 * zr), rel=1e-14)
    assert geom.gouy == pytest.approx(np.pi / 4.0, abs=1e-15)
    mirrored = beam_geometry(PARAMS, -zr)
    assert mirrored.w == geom.w
    assert mirrored.inv_R == pytest.approx(-geom.inv_R, rel=1e-14)
    assert mirrored.gouy == pytest.approx(-geom.gouy, abs=1e-15)


def test_gouy_monotone_and_bounded():
    zs = np.linspace(-40.0, 40.0, 401)
    gouys = np.array([beam_geometry(PARAMS, z).gouy for z in zs])
    assert np.all(np.diff(gouys) > 0)
    assert np.all(np.abs(gouys) < np.pi / 2)


def test_field_axis_value_at_waist():
    got = beam_field(BeamIndex(0, 0), PARAMS, 0.0, 0.0, 0.0)
    assert got == pytest.approx(np.sqrt(2.0 / np.pi) / PARAMS.w0, abs=1e-15)
    assert got.imag == 0.0 and got.real > 0


def test_waist_plane_reduction_pointwise():
    # compare against the waist formula written out literally
    idx = BeamIndex(2, -3)
    w0 = PARAMS.w0
    const = np.sqrt(2.0 * (2.0 / 120.0) / np.pi) / w0  # sqrt(2 p!/(pi (p+|l|)!)) with p!=2, 5!=120
    rng = np.random.default_rng(21)
    for _ in range(25):
        r = rng.uniform(0.0, 3.0)
        phi = rng.uniform(-np.pi, np.pi)
        want = (
            const
            * np.exp(-1j * idx.ell * phi)
            * np.exp(-(r * r) / (w0 * w0))
            * (r * np.sqrt(2.0) / w0) ** abs(idx.ell)
            * laguerre(idx.p, abs(idx.ell), 2.0 * r * r / (w0 * w0))
        )
        assert beam_field(idx, PARAMS, r, phi, 0.0) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("p,ell", [(0, 0), (1, 2), (2, -1), (0, 3)])
def test_waist_plane_matches_lg_mode(p, ell):
    axis = np.linspace(-4.0 * PARAMS.w0, 4.0 * PARAMS.w0, 61)
    xg, yg = axis[:, None], axis[None, :]
    vals = beam_field(BeamIndex(p, ell), PARAMS, np.hypot(xg, yg), np.arctan2(yg, xg), 0.0)
    # azimuthal index ell corresponds to angular momentum -(ell)
    if ell >= 0:
        mode = ModeIndex.lg(p, p + ell)
    else:
        mode = ModeIndex.lg(p - ell, p)
    scale = np.sqrt(2.0) / PARAMS.w0
    ref = lg_mode(mode, xg * scale, yg * scale)
    mask = np.abs(ref) > 1e-3 * np.abs(ref).max()
    ratio = vals[mask] / ref[mask]
    assert np.std(ratio) < 1e-8


def test_transverse_norm_unit_at_heights():
    for p, ell in [(0, 0), (1, 2), (2, 0)]:
        for z in (0.0, PARAMS.zR, 3.0 * PARAMS.zR):
            w_z = beam_geometry(PARAMS, z).w
            r = np.linspace(0.0, 8.0 * w_z, 4097)
            profile = np.abs(beam_field(BeamIndex(p, ell), PARAMS, r, 0.0, z)) ** 2
            total = 2.0 * np.pi * simpson(profile * r, x=r)
            assert total == pytest.approx(1.0, abs=1e-8)


def test_helical_phase():
    idx = BeamIndex(1, 3)
    z = 0.7 * PARAMS.zR
    r = 1.1 * PARAMS.w0
    phis = np.linspace(-np.pi, np.pi, 37)
    vals = beam_field(idx, PARAMS, np.full_like(phis, r), phis, z)
    unwound = vals * np.exp(1j * idx.ell * phis)
    assert np.abs(unwound - unwound[0]).max() <= 1e-10 * abs(unwound[0])


def test_zero_ring_for_p1():
    # radial zero of the p=1, ell=0 profile sits where the degree-1
    # Laguerre factor vanishes: 2 r^2 / w^2 = 1
    z = PARAMS.zR
    w_z = beam_geometry(PARAMS, z).w
    ring = w_z / np.sqrt(2.0)
    assert abs(beam_field(BeamIndex(1, 0), PARAMS, ring, 0.0, z)) <= 1e-14
    assert abs(beam_field(BeamIndex(1, 0), PARAMS, 0.9 * ring, 0.0, z)) > 1e-3


def test_vanishing_like_r_to_ell_at_axis():
    vals = [abs(beam_field(BeamIndex(0, 2), PARAMS, r, 0.3, 0.0)) for r in (0.0, 1e-3, 2e-3)]
    assert vals[0] == 0.0
    assert vals[2] / vals[1] == pytest.approx(4.0, rel=1e-4)


@pytest.mark.parametrize("z", [1e10, -1e10, np.float64(1e10)])
def test_geometry_requires_finite_k_z(z):
    # zR = 5e99, so |z| is well inside 1e150 Rayleigh ranges, but
    # k |z| = 1e310 overflows
    params = BeamParams(1e-100, 1e300)
    with pytest.raises(ValueError, match=r"k \|z\| must be finite"):
        beam_geometry(params, z)
    with pytest.raises(ValueError, match=r"k \|z\| must be finite"):
        beam_field(BeamIndex(0, 0), params, 0.0, 0.0, z)
    assert beam_geometry(params, 1e7).inv_R > 0  # k |z| = 1e307 is finite


def test_parameter_validation():
    with pytest.raises(ValueError):
        BeamParams(w0=-1.0, k=1.0)
    with pytest.raises(ValueError):
        BeamParams(w0=1.0, k=0.0)
    with pytest.raises(ValueError):
        BeamIndex(-1, 0)
    with pytest.raises(ValueError):
        BeamIndex(0, 65)
    with pytest.raises(TypeError):
        BeamIndex(0.5, 0)
    with pytest.raises(ValueError):
        beam_field(BeamIndex(0, 0), PARAMS, -0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        beam_geometry(PARAMS, np.inf)
