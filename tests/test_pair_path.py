"""One query summed in float arithmetic (``kernels._pair_sum``) against the
same pair run as a two-row batch, on every route at every size, with its
exact symmetries and its far points; and every route's term loop, the same
loop on a float and on an array."""
import math

import numpy as np
import pytest

from flatheat import InvalidParameter, KernelQuery, heat_kernel, heat_kernel_gradient, kernels
from flatheat.kernels import heat_gradient_values, heat_values
from flatheat.lattice import _recentre
from flatheat.surfaces import _deck, _deck_displacements, klein_bottle, torus

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

U = 2.0 ** -53
# the lattice classes of test_kernels: square, rectangular, isosceles, honeycomb, generic
LATTICE_CLASSES = [(0.0, 1.0), (0.0, 1.5), (0.3, math.sqrt(1 - 0.3 ** 2)),
                   (0.5, math.sqrt(3.0) / 2.0), (0.3, 1.2)]
SURFACES = [torus(a, b) for a, b in LATTICE_CLASSES] + [klein_bottle(0.8), klein_bottle(1.4)]
TIMES = (0.003, 0.02, 0.3, 2.0, 10.0)
EPSILONS = (1e-6, 1e-13)
PAIRS = [((0.13, 0.27), (0.61, 0.45)), ((-0.4, 1.9), (0.35, -0.05))]


def term_size(surface, t, rep, x, y, want_grad):
    """sum |term| of the route's lattice sum over the deck elements: every
    image (or dual point) in a window that holds all terms above e^-60 of
    the largest, summed with numpy at the reduced displacements."""
    rows = _deck(surface)[0]
    geom = kernels._geometry(rows)
    if rep == "image":
        alpha, basis = 1.0 / (4.0 * t), geom["rows"]
        reach = math.sqrt(60.0 / alpha) + 2.0 * geom["reach"]
    else:
        alpha, basis = 4.0 * math.pi ** 2 * t, geom["dual_rows"]
        reach = math.sqrt(60.0 / alpha) + 1.0
    span = math.ceil(reach * max(np.hypot(*basis[1]), 1.0)
                     / abs(np.linalg.det(basis)) * max(np.hypot(*basis[0]), 1.0)) + 2
    m = np.arange(-span, span + 1)
    pts = np.stack(np.meshgrid(m, m, indexing="ij"), -1).reshape(-1, 2) @ basis
    disp = _recentre(rows, _deck_displacements(surface, np.array(x), np.array(y))[2]).T
    total = 0.0
    for d in disp:
        if rep == "image":
            z = d - pts
            e = np.exp(-alpha * (z[:, 0] ** 2 + z[:, 1] ** 2)) / (4.0 * math.pi * t)
            total += (e * np.hypot(z[:, 0], z[:, 1]) * 2.0 * alpha).sum() if want_grad else e.sum()
        else:
            w = np.exp(-alpha * (pts[:, 0] ** 2 + pts[:, 1] ** 2)) / geom["covol"]
            total += (w * 2.0 * math.pi * np.hypot(pts[:, 0], pts[:, 1])).sum() if want_grad \
                else w.sum()
    return total


def batch_of_two(surface, t, x, y, eps, rep, want_grad):
    fn = heat_gradient_values if want_grad else heat_values
    out, err, terms, used = fn(surface, t, np.array([x, x]), np.array([y, y]), eps=eps,
                               representation=rep)
    return out[0], err, terms, used


def test_pair_matches_its_two_row_batch(monkeypatch):
    """terms_used, error_bound and representation_used are bitwise those of
    the pair run as a two-row batch, and, as both sum the same terms, the
    value (or gradient) lies within 48 u sum |term| of it: every lattice
    class and two Klein bottles, every representation, values and
    gradients, times from 0.003 to 10 and two tolerances.  A pair never
    reaches the numpy sums, on any route at any size: at t = 10 the image
    disk of torus(0.3, 1.2) sums 3,567 terms per displacement, and the image
    box of torus(0, 1.5) evaluates more than 100 exponentials."""
    # the numpy sums cut their displacements into blocks; a query has none
    blocks, cut = [0], kernels._blocks

    def counted(n, step):
        blocks[0] += 1
        return cut(n, step)

    monkeypatch.setattr(kernels, "_blocks", counted)
    for surface in SURFACES:
        for t in TIMES:
            for eps in EPSILONS:
                for rep in ("image", "spectral", "auto"):
                    for want_grad in (False, True):
                        for x, y in PAIRS:
                            q = KernelQuery(surface=surface, x=x, y=y, t=t, epsilon=eps,
                                            representation=rep)
                            before = blocks[0]
                            got = (heat_kernel_gradient(q) if want_grad else heat_kernel(q))
                            case = (surface, t, eps, rep, want_grad, x)
                            assert blocks[0] == before, case
                            ref, err, terms, used = batch_of_two(surface, t, x, y, eps, rep,
                                                                 want_grad)
                            assert (got.error_bound, got.terms_used,
                                    got.representation_used) == (err, terms, used), case
                            size = term_size(surface, t, used, x, y, want_grad)
                            value = got.gradient if want_grad else got.value
                            assert np.abs(np.subtract(value, ref)).max() <= 48 * U * size, case


def test_box_axis_sums_are_elementwise_float_loops():
    """With numpy's exp, cos and sin passed in, the box routes' axis sums
    ``kernels._gauss_sums`` and ``kernels._harmonic_sums`` and the disk
    routes' loops ``kernels._gauss_disk`` and ``kernels._cosines`` on arrays
    of coordinates give bitwise what each coordinate gives on its own, as a
    float: one loop, the same operations in the same order on either type."""
    d = np.random.default_rng(11).uniform(-0.8, 0.8, 37)
    for length, half, alpha in ((1.0, 3, 25.0), (1.5, 12, 0.9), (0.1, 40, 0.02)):
        for want_grad in (False, True):
            s, g = kernels._gauss_sums(d, length, half, alpha, want_grad, np.exp)
            for i, di in enumerate(d.tolist()):
                si, gi = kernels._gauss_sums(di, length, half, alpha, want_grad, np.exp)
                assert (s[i], g[i] if want_grad else g) == (si, gi), (length, half, i)
    cos_w = [1.0] + (2.0 * np.exp(-0.37 * np.arange(1, 30) ** 2)).tolist()
    sin_w = (np.arange(30) * np.array(cos_w)).tolist()
    for freq in (2.0 * math.pi, 2.0 * math.pi / 0.1):
        theta = freq * d
        for sw in (None, sin_w):
            c, s = kernels._harmonic_sums(np.cos(theta), np.sin(theta), cos_w, sw)
            for i, th in enumerate(theta.tolist()):
                ci, si = kernels._harmonic_sums(np.cos(th), np.sin(th), cos_w, sw)
                assert (c[i], s[i] if sw else s) == (ci, si), (freq, i)
    rows = ((1.0, 0.0), (-0.3, 1.2))
    far = kernels._disk(rows, 3.0, half=True)[1][::-1].tolist()
    _, pts, r2 = kernels._disk(rows, 4.0, half=True, dual=True)
    vecs = [(2.0 * math.pi * p0, 2.0 * math.pi * p1, w)
            for (p0, p1), w in zip(pts.tolist(), np.exp(-0.37 * r2).tolist())]
    e = np.random.default_rng(12).uniform(-0.8, 0.8, 37)
    for want_grad in (False, True):
        for loop in (lambda x0, x1: kernels._gauss_disk(x0, x1, far, 0.9, want_grad, np.exp),
                     lambda x0, x1: kernels._cosines(x0, x1, vecs, want_grad, np.cos, np.sin)):
            out = np.array(loop(d, e))
            each = np.array([loop(x0, x1) for x0, x1 in zip(d.tolist(), e.tolist())])
            assert np.array_equal(out.T if want_grad else out, each), want_grad


def test_single_pair_arrays_take_the_pair_path():
    """heat_values and heat_gradient_values on one pair of shape (2,) give
    the query's bits, as numpy's float64 and an array of shape (2,)."""
    for surface in SURFACES:
        for t in (0.02, 2.0):
            for rep in ("image", "spectral"):
                x, y = PAIRS[1]
                q = KernelQuery(surface=surface, x=x, y=y, t=t, representation=rep)
                v, err, terms, used = heat_values(surface, t, np.array(x), np.array(y),
                                                  representation=rep)
                k = heat_kernel(q)
                assert type(v) is np.float64
                assert (float(v), err, terms, used) == (k.value, *_meta(k))
                g, err, terms, used = heat_gradient_values(surface, t, np.array(x), np.array(y),
                                                           representation=rep)
                k = heat_kernel_gradient(q)
                assert g.shape == (2,) and tuple(g.tolist()) == k.gradient
                assert (err, terms, used) == _meta(k)


def _meta(out):
    return out.error_bound, out.terms_used, out.representation_used


def test_torus_pairs_are_exactly_symmetric():
    """On a torus K(x, y) = K(y, x) and the gradient negates, bit for bit, on
    every route at every size; at x = y the gradient is exactly (0.0, 0.0)."""
    rng = np.random.default_rng(7)
    for a, b in LATTICE_CLASSES:
        surface = torus(a, b)
        for t in TIMES:
            for rep in ("image", "spectral"):
                for x, y in rng.uniform(-1.5, 2.5, (4, 2, 2)).tolist():
                    q = KernelQuery(surface=surface, x=x, y=y, t=t, epsilon=1e-13,
                                    representation=rep)
                    r = KernelQuery(surface=surface, x=y, y=x, t=t, epsilon=1e-13,
                                    representation=rep)
                    assert heat_kernel(q).value == heat_kernel(r).value, (a, b, t, rep)
                    g, h = heat_kernel_gradient(q).gradient, heat_kernel_gradient(r).gradient
                    assert g == (-h[0], -h[1]), (a, b, t, rep)
                    same = KernelQuery(surface=surface, x=x, y=x, t=t, representation=rep)
                    assert heat_kernel_gradient(same).gradient == (0.0, 0.0)


def test_far_pairs_match_the_batch_and_overflow_is_typed():
    """Points at |x| = 1e300 reduce exactly and agree with the two-row batch
    within 48 u sum |term|, as the two sum the same terms;
    a displacement x - h(y) that overflows raises InvalidParameter, with no
    RuntimeWarning, from the query and from heat_values on one pair."""
    for surface in (torus(0.0, 1.5), torus(0.3, 1.2), klein_bottle(0.8)):
        for x, y in (((1e300, 0.0), (0.1, 0.2)), ((0.3, -1e300), (0.1, 0.2)),
                     ((0.2, 0.1), (1e300, 1e300))):
            for t in (0.02, 0.3):
                for rep in ("image", "spectral"):
                    q = KernelQuery(surface=surface, x=x, y=y, t=t, representation=rep)
                    for want_grad in (False, True):
                        got = heat_kernel_gradient(q) if want_grad else heat_kernel(q)
                        ref, err, terms, _ = batch_of_two(surface, t, x, y, 1e-10, rep,
                                                          want_grad)
                        value = got.gradient if want_grad else got.value
                        assert (got.error_bound, got.terms_used) == (err, terms)
                        size = term_size(surface, t, rep, x, y, want_grad)
                        assert np.abs(np.subtract(value, ref)).max() <= 48 * U * size
        for x, y in (((1e308, 0.0), (-1e308, 0.0)), ((0.0, -1e308), (0.0, 1e308))):
            q = KernelQuery(surface=surface, x=x, y=y, t=0.1)
            for fn in (heat_kernel, heat_kernel_gradient):
                with pytest.raises(InvalidParameter):
                    fn(q)
            for fn in (heat_values, heat_gradient_values):
                with pytest.raises(InvalidParameter):
                    fn(surface, 0.1, np.array(x), np.array(y))
