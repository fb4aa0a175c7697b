import random

import pytest

from prdom import (
    Certificate,
    InvalidStepError,
    SizeLimitError,
    Step,
    canonical_form,
    check_stable_profile,
    diameter,
    enumerate_family,
    enumerate_free_trees,
    forced_zero_set,
    grow,
    make_double_star,
    make_path,
    make_star,
    parse_certificate,
    prd_number,
    recognize,
    replay_certificate,
    serialize_certificate,
    stability_report,
)


def test_grow_p3_at_leaf_gives_p6():
    t = grow(make_path(3), 0)
    assert canonical_form(t) == canonical_form(make_path(6))


def test_grow_p3_at_center_rejected():
    with pytest.raises(InvalidStepError):
        grow(make_path(3), 1)


def test_grow_p6_gives_stable_nine_vertex_tree():
    p6 = make_path(6)
    for u in sorted(forced_zero_set(p6)):
        t = grow(p6, u)
        assert t.n == 9
        assert stability_report(t).stable
        assert prd_number(t) == 6


def test_family_base_order():
    fam = enumerate_family(3)
    assert len(fam) == 1
    assert canonical_form(make_path(3)) in fam
    assert fam.members[canonical_form(make_path(3))] == Certificate(steps=())


def test_family_order_six_is_only_p6():
    fam = enumerate_family(6)
    assert set(fam.members) == {canonical_form(make_path(6))}


def test_family_sizes():
    assert len(enumerate_family(9)) == 2
    assert len(enumerate_family(12)) == 5


def test_family_members_are_stable():
    for n in (3, 6, 9, 12):
        for cert in enumerate_family(n).members.values():
            t = replay_certificate(cert)
            assert t.n == n
            assert stability_report(t).stable


def test_family_rejects_bad_orders():
    with pytest.raises(ValueError):
        enumerate_family(7)
    with pytest.raises(ValueError):
        enumerate_family(0)
    with pytest.raises(SizeLimitError):
        enumerate_family(21)


def test_recognize_p6():
    r = recognize(make_path(6))
    assert r.accepted
    assert len(r.certificate.steps) == 1


def test_recognize_rejects_star():
    r = recognize(make_star(3))
    assert not r.accepted and r.certificate is None


def test_recognize_rejects_off_orders():
    assert not recognize(make_path(7)).accepted
    assert not recognize(make_path(8)).accepted


def test_recognize_accepts_p9():
    r = recognize(make_path(9))
    assert r.accepted and len(r.certificate.steps) == 2


def test_recognize_rejects_double_star():
    assert not recognize(make_double_star(3, 3)).accepted


def test_recognize_names_a_diameter_below_four():
    for n in (6, 9, 12):
        for t in enumerate_free_trees(n):
            if diameter(t) < 4:
                assert recognize(t).reason == "diameter below 4"


def test_recognition_matches_family_membership_exhaustively():
    for n in (3, 6, 9, 12):
        members = enumerate_family(n).members.keys()
        for t in enumerate_free_trees(n):
            assert recognize(t).accepted == (canonical_form(t) in members)


def test_replay_empty_certificate_is_p3():
    t = replay_certificate(Certificate(steps=()))
    assert t.graph == make_path(3).graph


def test_replay_round_trip():
    r = recognize(make_path(6))
    rebuilt = replay_certificate(r.certificate)
    assert canonical_form(rebuilt) == canonical_form(make_path(6))


def test_replay_rejects_tampered_attachment_point():
    # the center of the base path is never forced-zero
    bad = Certificate(steps=(Step(u=1, added=(3, 4, 5)),))
    with pytest.raises(InvalidStepError):
        replay_certificate(bad)


def test_replay_rejects_wrong_labels():
    bad = Certificate(steps=(Step(u=0, added=(4, 5, 6)),))
    with pytest.raises(InvalidStepError):
        replay_certificate(bad)


def test_certificate_serialization_round_trip():
    r = recognize(make_path(9))
    text = serialize_certificate(r.certificate)
    lines = text.splitlines()
    assert lines[0] == "P3"
    assert len(lines) == 3
    assert parse_certificate(text) == r.certificate


def test_certificate_parse_errors():
    with pytest.raises(InvalidStepError):
        parse_certificate("nope\n")
    with pytest.raises(InvalidStepError):
        parse_certificate("P3\n0 3 4 5\n")     # missing colon
    with pytest.raises(InvalidStepError):
        parse_certificate("P3\n0: 3 4\n")      # short triple
    with pytest.raises(InvalidStepError):
        parse_certificate("P3\nx: 3 4 5\n")    # non-integer


def test_check_stable_profile():
    assert check_stable_profile(make_path(3))
    assert check_stable_profile(make_path(6))
    assert check_stable_profile(grow(grow(make_path(3), 0), 0))
    assert not check_stable_profile(make_path(4))
    assert not check_stable_profile(make_star(5))  # n=6 but number is 2


def test_growth_preserves_stability_exhaustively():
    # every member up to 9 vertices, every forced-zero attachment point:
    # the grown 12-vertex-or-smaller tree must again be stable
    for n in (3, 6, 9):
        for cert in enumerate_family(n).members.values():
            t = replay_certificate(cert, check_stability=False)
            for u in sorted(forced_zero_set(t)):
                assert stability_report(grow(t, u)).stable


def test_random_walks_stay_in_the_family():
    rng = random.Random(7)
    t = make_path(3)
    for _ in range(6):
        t = grow(t, rng.choice(sorted(forced_zero_set(t))))
    assert t.n == 21
    r = recognize(t)
    assert r.accepted
    rebuilt = replay_certificate(r.certificate, check_stability=False)
    assert canonical_form(rebuilt) == canonical_form(t)
