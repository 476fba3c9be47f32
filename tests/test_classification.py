import numpy as np
import pytest

from hpharmonics import lie3
from hpharmonics.lie3 import (
    SubsetDescriptor,
    classify_algebra,
    classify_sets,
    is_eigendirection,
)
from hpharmonics.verify import CLASS_REPRESENTATIVES, golden_classification

GOLDEN = golden_classification()


def _key(rep):
    return ",".join(f"{v:g}" for v in rep)


def test_every_representative_has_golden_entry():
    assert set(CLASS_REPRESENTATIVES) == set(GOLDEN)


@pytest.mark.parametrize("rep", CLASS_REPRESENTATIVES, ids=_key)
def test_golden_classification(rep):
    expected = GOLDEN[rep]
    md = classify_algebra(rep)
    sets = classify_sets(rep)
    assert md.algebra_class == expected["algebra_class"]
    assert md.flat == expected["flat"]
    for name in ("H1", "H2", "H3", "Z1", "Z2", "Z3"):
        assert sets[name].to_json() == expected[name], name


def test_descriptor_membership_basics():
    sphere = SubsetDescriptor.sphere()
    empty = SubsetDescriptor.empty()
    pole = SubsetDescriptor.polar_pair(2)
    circle = SubsetDescriptor.circle(1, 3)
    polar = SubsetDescriptor.polar_set()
    union = SubsetDescriptor.union(circle, pole)

    e2 = np.array([0.0, 1.0, 0.0])
    tilted = np.array([0.6, 0.0, 0.8])
    assert sphere.contains(e2) and sphere.contains(tilted)
    assert not empty.contains(e2)
    assert pole.contains(e2) and pole.contains(-e2)
    assert not pole.contains(tilted)
    assert circle.contains(tilted) and not circle.contains(e2)
    assert polar.contains(e2) and not polar.contains(tilted)
    assert union.contains(tilted) and union.contains(e2)

    batch = np.stack([e2, tilted, -e2])
    np.testing.assert_array_equal(union.contains(batch), [True, True, True])
    np.testing.assert_array_equal(polar.contains(batch), [True, False, True])

    # The zero vector is in every set but Empty: it has no coefficient that
    # is not negligible.  A coefficient required to vanish may be up to TOL.
    zero = np.zeros(3)
    assert not empty.contains(zero) and not empty.contains(zero[None]).any()
    assert all(d.contains(zero) for d in (sphere, pole, circle, polar, union))
    band = np.array([[1e-9, 1.0, 0.0], [2e-9, 1.0, 0.0], [0.6, 1e-9, 0.8], [0.6, 2e-9, 0.8]])
    band = np.concatenate([band, [[1e-9, 1.0, 1e-9], [1e-9, 1e-9, 1.0], [1e-9, 1e-9, 1e-9]]])
    expected = {
        sphere: [True] * 7,
        empty: [False] * 7,
        pole: [True, False, False, False, True, False, True],
        circle: [False, False, True, False, False, True, True],
        polar: [True, False, False, False, True, True, True],
        union: [True, False, True, False, True, True, True],
    }
    for descriptor, want in expected.items():
        np.testing.assert_array_equal(descriptor.contains(band), want, str(descriptor))
        assert [descriptor.contains(s) for s in band] == want, str(descriptor)
    # A non-finite coefficient is refused, not read as negligible or not.
    for descriptor in expected:
        with pytest.raises(ValueError, match="non-finite"):
            descriptor.contains([np.nan, 1.0, 0.0])
    md = classify_algebra((3.0, 2.0, 0.5))
    for rule in (lie3.in_h1, lie3.in_h2, lie3.in_z1, lie3.in_z2):
        with pytest.raises(ValueError, match="non-finite"):
            rule(md, [[0.0, 1.0, 0.0], [np.inf, 0.0, 0.0]])


def test_descriptor_validation():
    with pytest.raises(ValueError):
        SubsetDescriptor("Circle", indices=(3, 1))
    with pytest.raises(ValueError):
        SubsetDescriptor("PolarPair", indices=(4,))
    with pytest.raises(ValueError):
        SubsetDescriptor("Sphere", indices=(1,))
    with pytest.raises(ValueError):
        SubsetDescriptor.union(SubsetDescriptor.sphere())
    with pytest.raises(ValueError):
        SubsetDescriptor("Bogus")
    circle, pole = SubsetDescriptor.circle(1, 3), SubsetDescriptor.polar_pair(2)
    with pytest.raises(ValueError):
        SubsetDescriptor.union(SubsetDescriptor.union(circle, pole), SubsetDescriptor.polar_set())
    with pytest.raises(ValueError):
        SubsetDescriptor("Sphere", members=(circle, pole))


def test_descriptor_text_and_json_roundtrip():
    union = SubsetDescriptor.union(
        SubsetDescriptor.circle(1, 3), SubsetDescriptor.polar_pair(2)
    )
    assert str(union) == "Circle(1,3) U PolarPair(2)"
    assert union.to_json() == {
        "kind": "Union",
        "members": [
            {"kind": "Circle", "indices": [1, 3]},
            {"kind": "PolarPair", "indices": [2]},
        ],
    }


def test_classify_sets_spec_examples():
    sets = classify_sets((0.0, 0.0, 0.0))
    for name in ("H1", "H2", "Z1", "Z2"):
        assert sets[name] == SubsetDescriptor.sphere()

    sets = classify_sets((1.0, 1.0, 0.0))
    assert sets["H1"] == SubsetDescriptor.union(
        SubsetDescriptor.circle(1, 2), SubsetDescriptor.polar_pair(3)
    )
    assert sets["Z1"] == SubsetDescriptor.polar_pair(3)
    assert sets["Z2"] == SubsetDescriptor.sphere()
    assert sets["H2"] == SubsetDescriptor.sphere()

    sets = classify_sets((2.0, 1.0, 1.0))
    assert sets["H2"] == SubsetDescriptor.union(
        SubsetDescriptor.circle(2, 3), SubsetDescriptor.polar_pair(1)
    )
    assert sets["Z2"] == SubsetDescriptor.circle(2, 3)


def test_union_law_h2_is_h1_or_z2():
    rng = np.random.default_rng(211)
    for rep in CLASS_REPRESENTATIVES:
        sets = classify_sets(rep)
        samples = rng.normal(size=(2000, 3))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        poles = np.concatenate([np.eye(3), -np.eye(3)])
        circles = []
        for i, j in ((0, 1), (0, 2), (1, 2)):
            t = rng.uniform(0, 2 * np.pi, size=50)
            pts = np.zeros((50, 3))
            pts[:, i], pts[:, j] = np.cos(t), np.sin(t)
            circles.append(pts)
        samples = np.concatenate([samples, poles] + circles)
        h1 = sets["H1"].contains(samples)
        h2 = sets["H2"].contains(samples)
        z2 = sets["Z2"].contains(samples)
        np.testing.assert_array_equal(h2, h1 | z2, err_msg=str(rep))
        assert np.all(sets["H3"].contains(samples))
        assert np.all(sets["Z3"].contains(samples))


def test_descriptors_match_eigen_predicates():
    # dense sampling: 10^4 unit fields per representative, plus the
    # boundary cases (poles and coordinate circles)
    rng = np.random.default_rng(223)
    for rep in CLASS_REPRESENTATIVES:
        md = classify_algebra(rep)
        sets = classify_sets(rep)
        samples = rng.normal(size=(10_000, 3))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        circles = []
        for i, j in ((0, 1), (0, 2), (1, 2)):
            t = rng.uniform(0, 2 * np.pi, size=100)
            pts = np.zeros((100, 3))
            pts[:, i], pts[:, j] = np.cos(t), np.sin(t)
            circles.append(pts)
        samples = np.concatenate([samples, np.eye(3), -np.eye(3)] + circles)
        np.testing.assert_array_equal(
            is_eigendirection(md.mu**2, samples), sets["H1"].contains(samples)
        )
        np.testing.assert_array_equal(
            is_eigendirection(md.ricci**2, samples), sets["H2"].contains(samples)
        )
