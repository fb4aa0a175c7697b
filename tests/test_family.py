import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prdom
import prdom.cli as cli
import prdom.family as family
import prdom.solver as solver
import prdom.sweeps as sweeps
from conftest import labeled_trees, shuffled_member
from prdom import (
    Graph,
    InvalidStepError,
    SizeLimitError,
    Tree,
    attach_pendant_path,
    canonical_form,
    check_stable_profile,
    delete_vertices,
    enumerate_family,
    enumerate_free_trees,
    forced_zero_set,
    grow,
    longest_path,
    make_double_star,
    make_path,
    make_spider,
    make_star,
    parse_certificate,
    prd_number,
    recognize,
    replay_certificate,
    serialize_certificate,
    stability_report,
)
from prdom.enumeration import _free_tree_parents
from prdom.family import random_certificate
from prdom.graphs import _parents_to_tree


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
    assert enumerate_family(3) == {canonical_form(make_path(3)): ()}


def test_family_order_six_is_only_p6():
    assert set(enumerate_family(6)) == {canonical_form(make_path(6))}


def test_family_sizes():
    assert len(enumerate_family(9)) == 2
    fam = enumerate_family(12)
    assert type(fam) is dict and len(fam) == 5
    assert list(fam) == sorted(fam)


def test_family_members_are_stable():
    for n in (3, 6, 9, 12):
        for cert in enumerate_family(n).values():
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
    assert len(r.certificate) == 1


def test_recognize_rejects_star():
    r = recognize(make_star(3))
    assert not r.accepted and r.certificate is None


def test_recognize_rejects_off_orders():
    assert not recognize(make_path(7)).accepted
    assert not recognize(make_path(8)).accepted


def test_recognize_accepts_p9():
    r = recognize(make_path(9))
    assert r.accepted and len(r.certificate) == 2


def test_recognize_rejects_double_star():
    assert not recognize(make_double_star(3, 3)).accepted


def test_recognize_names_the_failing_path_vertex():
    fork = Tree(Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5)]))
    table = [
        (make_star(5), "second path vertex degree is not 2"),
        (make_double_star(1, 3), "second path vertex degree is not 2"),
        (fork, "second path vertex degree is not 2"),
        # covering the block 5-4-0 strands the leaves 1, 2 and 3
        (make_spider([1, 1, 1, 2]), "a vertex is left with no block"),
    ]
    for t, reason in table:
        assert tuple(recognize(t)) == (False, None, reason)


def test_recognition_matches_family_membership_exhaustively():
    for n in (3, 6, 9, 12):
        members = enumerate_family(n).keys()
        for t in enumerate_free_trees(n):
            assert recognize(t).accepted == (canonical_form(t) in members)


def test_replay_empty_certificate_is_p3():
    t = replay_certificate(())
    assert t == make_path(3)


def test_replay_round_trip():
    r = recognize(make_path(6))
    rebuilt = replay_certificate(r.certificate)
    assert canonical_form(rebuilt) == canonical_form(make_path(6))


def test_replay_rejects_tampered_attachment_point():
    # the center of the base path is never forced-zero
    with pytest.raises(InvalidStepError):
        replay_certificate((1,))


def test_replay_rejects_wrong_labels():
    # a certificate's labels come only from its text, so parsing refuses them
    with pytest.raises(InvalidStepError):
        replay_certificate(parse_certificate("P3\n0: 4 5 6\n"))


def test_parse_refuses_labels_a_step_does_not_create():
    table = [
        ("P3\n0: 4 5 6\n", "step 0: expected new labels (3, 4, 5), got (4, 5, 6)"),
        ("P3\n0: 3 4 5\n2: 6 8 7\n", "step 1: expected new labels (6, 7, 8), got (6, 8, 7)"),
        # the first wrong step is named, whatever follows it
        ("P3\n0: 3 4 5\n0: 6 7 9\n0: 0 0 0\n", "step 1: expected new labels (6, 7, 8), got (6, 7, 9)"),
    ]
    for text, message in table:
        with pytest.raises(InvalidStepError) as info:
            parse_certificate(text)
        assert str(info.value) == message
    # a line that is no step at all is named first, wherever it comes
    with pytest.raises(InvalidStepError, match="step line 2: non-integer label"):
        parse_certificate("P3\n0: 4 5 6\nx: 6 7 8\n")


def _replay_per_step(c):
    """Replay that checks every intermediate tree for stability: the
    reference for the single check at the end."""
    edges = [(0, 1), (1, 2)]
    forced = {0, 2}
    for i, u in enumerate(c):
        n = 3 + 3 * i
        if not (0 <= u < n):
            raise InvalidStepError(f"step {i}: vertex {u} outside 0..{n - 1}")
        if u not in forced:
            raise InvalidStepError(f"step {i}: vertex {u} is not forced to 0 by every optimum")
        edges += ((u, n), (n, n + 1), (n + 1, n + 2))
        forced.update((n, n + 2))
        if not family._deletion_stable(Tree(Graph(n + 3, edges)).walk[1]):
            raise InvalidStepError(f"step {i}: intermediate tree is not stable")
    return Tree(Graph(3 + 3 * len(c), edges))


def test_replay_checks_stability_once(monkeypatch):
    cert = random_certificate(300, random.Random(11))
    calls = []

    def counting(parent):
        calls.append(len(parent))
        return solver._deletion_stable(parent)

    monkeypatch.setattr(family, "_deletion_stable", counting)
    t = replay_certificate(cert)
    assert calls == [903]
    assert t == _replay_per_step(cert)
    assert len(calls) == 1 + 300  # the reference checks every step


@pytest.mark.parametrize("k", [1, 2, 3, 7, 64, 150, 299, 300, 301])
def test_replay_names_the_first_unstable_step(k, monkeypatch):
    # every tree of order 3 + 3k or more reads as unstable: the tree after
    # step k - 1 is the first
    monkeypatch.setattr(family, "_deletion_stable", lambda parent: len(parent) < 3 + 3 * k)
    cert = random_certificate(300, random.Random(k))
    if k > 300:
        assert replay_certificate(cert) == _replay_per_step(cert)
        return
    with pytest.raises(InvalidStepError) as reference:
        _replay_per_step(cert)
    with pytest.raises(InvalidStepError) as info:
        replay_certificate(cert)
    assert str(info.value) == str(reference.value)
    assert str(info.value) == f"step {k - 1}: intermediate tree is not stable"


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
    for line in ("+0: 3 4 5", "0: 3 4 5_0", "\u0660: 3 4 5", "0: \u0663 4 5"):
        with pytest.raises(InvalidStepError, match="step line 1: non-integer label"):
            parse_certificate(f"P3\n{line}\n")


def test_certificate_length_is_capped(monkeypatch):
    monkeypatch.setattr(family, "CERTIFICATE_MAX_STEPS", 2)
    text = serialize_certificate(random_certificate(2, random.Random(1)))
    assert len(parse_certificate(text)) == 2
    with pytest.raises(SizeLimitError, match="capped at 2 steps, got 3"):
        # the cap counts lines before any of them is read as a step
        parse_certificate(text + "not a step\n")


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
        for cert in enumerate_family(n).values():
            t = replay_certificate(cert)
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
    rebuilt = replay_certificate(r.certificate)
    assert canonical_form(rebuilt) == canonical_form(t)


def _check_pendant_p3_invariance(t):
    before = forced_zero_set(t)
    for u in range(t.n):
        after = forced_zero_set(attach_pendant_path(t, u, 3))
        assert {v for v in after if v < t.n} == before
        if u in before:
            assert after == before | {t.n, t.n + 2}


def test_pendant_p3_invariance_exhaustively():
    # hanging v3-v2-v1 off any u keeps the forced-zero set on the old
    # vertices, and off a forced-zero u it adds exactly v3 and v1
    for n in range(1, 13):
        for t in enumerate_free_trees(n):
            _check_pendant_p3_invariance(t)


@given(labeled_trees(max_n=60))
@settings(max_examples=100, deadline=None)
def test_pendant_p3_invariance_on_random_trees(t):
    _check_pendant_p3_invariance(t)


def _recognize_per_peel(t):
    """The diameter peel, with a fresh forced-zero pass on every peeled tree
    and the isomorphism rebuilt from each relabelled snapshot: the reference
    that the block partition's decisions are checked against."""
    if t.n % 3 != 0:
        return (False, None, "order not a multiple of 3")
    peels = []
    current = t
    while current.n > 3:
        path = longest_path(current)
        if len(path) < 5:
            return (False, None, "diameter below 4")
        x1, x2, x3, x4 = path[:4]
        if current.degree(x2) != 2:
            return (False, None, "second path vertex degree is not 2")
        if current.degree(x3) != 2:
            return (False, None, "third path vertex degree is not 2")
        peeled_graph, old_to_new = delete_vertices(current, (x1, x2, x3))
        smaller = Tree(peeled_graph)
        if old_to_new[x4] not in forced_zero_set(smaller):
            return (False, None, "anchor is not forced-zero after peeling")
        peels.append(((x1, x2, x3), x4, old_to_new))
        current = smaller
    center = next(v for v in range(3) if current.degree(v) == 2)
    leaves = sorted(v for v in range(3) if v != center)
    iso = {center: 1, leaves[0]: 0, leaves[1]: 2}
    steps = []
    size = 3
    for (x1, x2, x3), x4, old_to_new in reversed(peels):
        new_iso = {old: iso[new] for old, new in enumerate(old_to_new) if new >= 0}
        steps.append(iso[old_to_new[x4]])
        new_iso.update({x3: size, x2: size + 1, x1: size + 2})
        iso = new_iso
        size += 3
    return (True, tuple(steps), None)


REASONS = {
    "order not a multiple of 3",
    "second path vertex degree is not 2",
    "a vertex is left with no block",
}


def test_rejection_reasons_are_named_once():
    named = {family.ORDER_NOT_MULTIPLE_OF_3, family.SECOND_NOT_DEGREE_2, family.LEFT_WITHOUT_BLOCK}
    assert named == REASONS
    given = {recognize(t).reason for n in range(1, 13) for t in enumerate_free_trees(n)}
    assert given == named | {None}


def test_the_theorem_sweep_builds_a_tree_only_for_a_stable_tree(monkeypatch):
    # every route reads the generator's parent array; at caps up to 14 the
    # stable trees are 1, 1, 2 and 5 of orders 3, 6, 9 and 12
    built = []
    to_tree = sweeps._parents_to_tree

    def counted(parent):
        built.append(len(parent))
        return to_tree(parent)

    def forbidden(*args, **kwargs):
        raise AssertionError("the sweep recognized a Tree or took its canonical form")

    monkeypatch.setattr(sweeps, "_parents_to_tree", counted)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "prdom":
            for helper in ("recognize", "canonical_form"):
                if hasattr(module, helper):
                    monkeypatch.setattr(module, helper, forbidden)
    payload = sweeps.characterization_sweep(14)
    assert payload["passed"] and payload["trees_checked"] == 5445
    assert built == [3, 6, 9, 9, 12, 12, 12, 12, 12]


def test_stable_trees_are_enumerated_once_per_order(monkeypatch):
    # the attachment and optima suites of verify --suite all share each
    # order's stable trees
    orders = []
    enumerate_all = sweeps._free_tree_parents

    def counted(n):
        orders.append(n)
        return enumerate_all(n)

    monkeypatch.setattr(sweeps, "_free_tree_parents", counted)
    sweeps._stable_trees.cache_clear()
    try:
        assert sweeps.attachment_delta_sweep(12)["passed"]
        assert sweeps.optima_structure_sweep(12)["passed"]
    finally:
        sweeps._stable_trees.cache_clear()
    assert orders == [3, 6, 9, 12]


def test_stable_trees_are_the_free_trees_the_report_calls_stable():
    for n in range(3, 16, 3):
        expected = [t.edges() for t in enumerate_free_trees(n) if stability_report(t).stable]
        assert [t.edges() for t in sweeps._stable_trees(n)] == expected


def _check_against_the_oracle(t):
    """The block partition decides as the diameter peel does; it gives a
    reason exactly on rejection, and its certificate rebuilds the input."""
    result = recognize(t)
    assert result.accepted == _recognize_per_peel(t)[0]
    if result.accepted:
        assert result.reason is None
        assert canonical_form(replay_certificate(result.certificate)) == canonical_form(t)
    else:
        assert result.certificate is None and result.reason in REASONS
    return result


def test_recognize_matches_the_per_peel_oracle_exhaustively():
    for n in range(1, 16):
        for t in enumerate_free_trees(n):
            _check_against_the_oracle(t)


@st.composite
def shuffled_members(draw, max_steps=30):
    cert = random_certificate(
        draw(st.integers(0, max_steps)), random.Random(draw(st.integers(0, 2**32)))
    )
    t = replay_certificate(cert)
    perm = draw(st.permutations(range(t.n)))
    return Tree(Graph(t.n, [(perm[u], perm[v]) for u, v in t.edges()]))


@given(shuffled_members())
@settings(max_examples=100, deadline=None)
def test_recognize_matches_the_oracle_on_shuffled_members(t):
    assert _check_against_the_oracle(t).accepted


@pytest.mark.parametrize(("steps", "seed"), [(100, 0), (200, 1)])
def test_recognize_matches_the_oracle_on_long_shuffled_members(steps, seed):
    assert _check_against_the_oracle(shuffled_member(steps, random.Random(seed))).accepted


def _block_ends(t):
    order, parent = t.walk
    middle = family._block_middles(parent)
    return None if isinstance(middle, str) else {order[v] for v in range(t.n) if middle[v] != v}


def _block_ends_are_the_forced_zero_set_at(n):
    # the block claim in the family docstring: a member's block ends are
    # exactly the vertices every optimum labels 0
    members = 0
    for t in enumerate_free_trees(n):
        ends = _block_ends(t)
        if ends is not None:
            members += 1
            assert ends == forced_zero_set(t)
    assert members == len(enumerate_family(n))


def test_block_ends_are_the_forced_zero_set_of_every_member():
    for n in range(3, 16, 3):
        _block_ends_are_the_forced_zero_set_at(n)
    for steps in (0, 1, 10, 100, 1000, 3332):
        t = shuffled_member(steps, random.Random(steps))
        assert _block_ends(t) == forced_zero_set(t)


def test_block_middles_agree_on_every_walk_of_every_tree():
    # the generator's preorder array and the tree's BFS walk give the same
    # partition in labels (the generator's vertex i is at position i), and
    # both accept exactly the deletion-stable trees
    for n in range(1, 16):
        for parent in _free_tree_parents(n):
            t = _parents_to_tree(parent)
            order, walk_parent = t.walk
            by_walk = family._block_middles(walk_parent)
            by_parent = family._block_middles(parent)
            stable = solver._deletion_stable(parent)
            assert isinstance(by_walk, str) == isinstance(by_parent, str) == (not stable)
            if stable:
                labels = [0] * n
                for v, c in zip(order, by_walk):
                    labels[v] = order[c]
                assert labels == by_parent


@pytest.mark.slow
def test_block_ends_are_the_forced_zero_set_of_every_member_of_order_18():
    _block_ends_are_the_forced_zero_set_at(18)


@pytest.mark.slow
def test_recognize_matches_deletion_stability_on_every_tree_of_order_18():
    trees = stable = 0
    for t in enumerate_free_trees(18):
        accepted = recognize(t).accepted
        assert accepted == solver._deletion_stable(t.walk[1])
        trees += 1
        stable += accepted
    assert (trees, stable) == (123867, 49)


@st.composite
def regrafted_members(draw, max_steps=30):
    """A member cut at the edge above a vertex other than 0, the cut side
    regrafted at a random vertex of the rest, labels shuffled: stable or
    not."""
    cert = random_certificate(
        draw(st.integers(1, max_steps)), random.Random(draw(st.integers(0, 2**32)))
    )
    parent = [-1, 0, 1]
    for n, u in zip(range(3, 3 + 3 * len(cert), 3), cert):
        parent += (u, n, n + 1)
    n = len(parent)
    cut = draw(st.integers(1, n - 1))
    below = {cut}
    for v in range(cut + 1, n):  # every parent's label is below its child's
        if parent[v] in below:
            below.add(v)
    parent[cut] = draw(st.sampled_from([v for v in range(n) if v not in below]))
    perm = draw(st.permutations(range(n)))
    return Tree(Graph(n, [(perm[parent[v]], perm[v]) for v in range(1, n)]))


@given(regrafted_members())
@settings(max_examples=200, deadline=None)
def test_recognize_matches_deletion_stability_on_regrafted_members(t):
    assert _check_against_the_oracle(t).accepted == solver._deletion_stable(t.walk[1])


def test_recognize_peels_the_input_in_place(monkeypatch):
    # one pass over the walk the tree was built with: no second walk, no
    # diameter sweep, no relabelled copy and no longest-path descent
    t = replay_certificate(random_certificate(300, random.Random(4)))
    large = shuffled_member(10_000, random.Random(5))

    def forbidden(*args, **kwargs):
        raise AssertionError("recognize walked the tree or built a relabelled copy")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "prdom":
            for helper in ("rooted_order", "longest_path", "delete_vertices"):
                if hasattr(module, helper):
                    monkeypatch.setattr(module, helper, forbidden)
    assert recognize(t).accepted
    assert recognize(large).accepted


@given(labeled_trees(min_n=3, max_n=45))
@settings(max_examples=100, deadline=None)
def test_recognize_matches_the_oracle_on_random_trees(t):
    _check_against_the_oracle(t)


def _family_closure_oracle(n):
    """enumerate_family with a fresh forced-zero pass on every member."""
    base = make_path(3)
    level = {canonical_form(base): (base, ())}
    for size in range(3, n, 3):
        nxt = {}
        for key in sorted(level):
            tree, cert = level[key]
            for u in sorted(forced_zero_set(tree)):
                grown = attach_pendant_path(tree, u, 3)
                nxt.setdefault(canonical_form(grown), (grown, cert + (u,)))
        level = nxt
    return {k: level[k][1] for k in sorted(level)}


def test_enumerate_family_matches_the_recomputing_closure():
    for n in range(3, 19, 3):
        fam, oracle = enumerate_family(n), _family_closure_oracle(n)
        assert fam == oracle
        assert list(fam.items()) == list(oracle.items())


def _closed_form(n):
    return {v for v in range(n) if v % 3 != 1}


def test_every_member_is_forced_zero_exactly_off_the_path_centres():
    # the invariance lemma's closed form, which replay and the closure
    # check anchors against, is every tree's own forced-zero set
    for n in range(3, 19, 3):
        for cert in enumerate_family(n).values():
            assert forced_zero_set(replay_certificate(cert)) == _closed_form(n)
    for steps in (0, 1, 2, 10, 50, 300):
        for seed in range(3):
            t = replay_certificate(random_certificate(steps, random.Random(seed)))
            assert forced_zero_set(t) == _closed_form(t.n)


def test_the_closure_builds_no_tree_per_candidate(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the closure built a tree or a forced-zero set")

    for helper in ("Tree", "attach_pendant_path", "forced_zero_set", "canonical_form"):
        if hasattr(family, helper):
            monkeypatch.setattr(family, helper, forbidden)
    assert len(enumerate_family(18)) == 49


@pytest.fixture
def forced_zero_calls(monkeypatch):
    """Records the order of every forced_zero_set call, under every name it is
    imported as."""
    calls = []
    original = solver.forced_zero_set

    def counting(x):
        calls.append(x.n)
        return original(x)

    for module in (prdom, solver, family, sweeps):
        monkeypatch.setattr(module, "forced_zero_set", counting)
    return calls


def _members_and_rejections():
    members = [replay_certificate(random_certificate(steps, random.Random(steps))) for steps in (0, 1, 5, 30)]
    members.append(shuffled_member(1000, random.Random(3)))
    rejected = {
        make_path(4): family.ORDER_NOT_MULTIPLE_OF_3,
        make_star(5): family.SECOND_NOT_DEGREE_2,
        make_double_star(4, 3): family.SECOND_NOT_DEGREE_2,
        make_spider([3, 2, 2, 1]): family.LEFT_WITHOUT_BLOCK,
        make_spider([1, 1, 1, 2]): family.LEFT_WITHOUT_BLOCK,
    }
    return members, rejected


def test_one_forced_zero_pass_per_recognize(forced_zero_calls):
    # at most one pass: recognize reads the block partition, so it runs none
    members, rejected = _members_and_rejections()
    for t in members:
        assert recognize(t).accepted
    for t, reason in rejected.items():
        assert recognize(t).reason == reason
    assert forced_zero_calls == []


def test_recognize_runs_no_rerooting_pass_before_an_anchor_check(monkeypatch):
    # no table, no rerooting pass, no forced-zero set and no number, on
    # members and on a tree for each rejection reason
    members, rejected = _members_and_rejections()

    def forbidden(*args, **kwargs):
        raise AssertionError("recognize ran the DP")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "prdom":
            for helper in ("_tables", "_reroot", "_all_roots", "forced_zero_set", "prd_number"):
                if hasattr(module, helper):
                    monkeypatch.setattr(module, helper, forbidden)
    for t in members:
        assert recognize(t).accepted
    for t, reason in rejected.items():
        assert recognize(t).reason == reason


def test_no_forced_zero_pass_in_the_construction_walks(forced_zero_calls, capsys):
    assert cli.main(["generate", "--steps", "60", "--seed", "5"]) == 0
    assert cli.main(["generate", "--all", "18"]) == 0
    capsys.readouterr()
    replay_certificate(random_certificate(20, random.Random(9)))
    enumerate_family(18)
    assert forced_zero_calls == []
