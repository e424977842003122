import itertools

import numpy as np
import pytest

from nbalab import core
from nbalab.skew import (
    AuditFailure,
    SkewTable,
    boolean_center,
    check_axioms,
    equivalence_is_congruence,
    factor_congruences_of,
    is_element_kind,
    nba_of_star,
    reduct,
    relations,
    star_of,
)
from nbalab.transforms import CenterParams

A32 = core.power_algebra(3, 2)
G3 = core.generator(3)


def test_nba_audit_passes_on_powers():
    for alg in (core.generator(2), G3, A32, core.power_algebra(2, 3)):
        rep = check_axioms(alg, "NBA")
        assert rep.ok
        assert rep.first_failure() is None


def test_nba_audit_fails_on_mutated_table():
    tab = core.table_of_power(G3)
    # q(e1, y1, y2, y3) must equal y1; break one entry
    assert tab.q_idx(0, [0, 1, 2]) == 0
    bad = tab.mutate((0, 0, 1, 2), 1)
    rep = check_axioms(bad, "NBA")
    assert not rep.ok
    fail = rep.first_failure()
    assert fail.counterexample is not None


def test_skew_reduct_tables():
    sk = reduct(A32, "skew", i=1)
    assert sk.size == 9 and sk.index == 1
    assert sk.zero == A32.index(A32.constant(1))
    a, b = A32.index((1, 2)), A32.index((2, 3))
    # meet = t_1(a, b, e_1), pointwise: keep b where a is nonzero
    assert A32.elements()[int(sk.meet[a, b])] == (1, 3)
    # a \ b = t_1(b, e_1, a): keep a where b is zero
    assert A32.elements()[int(sk.minus[a, b])] == (1, 1)


def test_skew_reduct_audits():
    for i in (1, 2, 3):
        sk = reduct(A32, "skew", i=i)
        for suite in ("SKEW_LATTICE", "SKEW_BA", "RIGHT_HANDED", "SRCA"):
            assert check_axioms(sk, suite).ok, (i, suite)


def test_skew_audit_detects_broken_meet():
    sk = reduct(A32, "skew", i=1)
    meet = sk.meet.copy()
    meet[4, 4] = (meet[4, 4] + 1) % sk.size  # break idempotency
    broken = SkewTable(sk.size, meet, sk.join, sk.minus, sk.zero, sk.labels)
    rep = check_axioms(broken, "SKEW_LATTICE")
    assert not rep.ok
    with pytest.raises(AuditFailure):
        relations(broken)


def test_relations_right_handed():
    sk = reduct(A32, "skew", i=1)
    rel = relations(sk)
    assert rel.right_handed and not rel.left_handed
    assert np.array_equal(rel.r_rel, rel.d_rel)
    # natural order: zero is the bottom
    assert rel.leq[sk.zero].all()
    # leq is contained in the preorders
    assert np.all(~rel.leq | rel.preceq)


def test_d_l_r_are_congruences():
    sk = reduct(A32, "skew", i=1)
    rel = relations(sk)
    for r in (rel.d_rel, rel.l_rel, rel.r_rel):
        assert equivalence_is_congruence(r, [sk.meet, sk.join])


def test_star_round_trip_table_level():
    for n, m in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        alg = core.power_algebra(n, m)
        st = star_of(alg)
        back = nba_of_star(st)
        assert back.q_flat == core.table_of_power(alg).q_flat
        assert back.constants == core.table_of_power(alg).constants


def test_skew_star_audit():
    assert check_axioms(star_of(A32), "SKEW_STAR").ok
    assert check_axioms(star_of(core.power_algebra(2, 2)), "SKEW_STAR").ok


def test_skew_star_audit_detects_damage():
    st = star_of(core.power_algebra(2, 2))
    tables = list(st.tables)
    t0 = tables[0].copy()
    t0[st.zeros[0], 1, 2] = 1  # violate t_1(0_1, y, z) = z ... some identity
    tables[0] = t0
    broken = type(st)(st.n, st.size, tuple(tables), st.zeros, st.labels)
    assert not check_axioms(broken, "SKEW_STAR").ok


def test_suite_type_checks():
    with pytest.raises(TypeError):
        check_axioms(A32, "SKEW_BA")
    with pytest.raises(TypeError):
        check_axioms(reduct(A32, "skew", i=1), "NBA")
    with pytest.raises(ValueError):
        check_axioms(A32, "NOT_A_SUITE")


def test_sampled_mode_reports_and_stays_deterministic():
    rep1 = check_axioms(G3, "NBA", budget=1, samples=200, seed=11)
    rep2 = check_axioms(G3, "NBA", budget=1, samples=200, seed=11)
    assert rep1.ok and rep1.sampled
    assert rep1.to_json() == rep2.to_json()


def test_element_kinds_all_central_in_powers():
    for e in A32.elements():
        assert is_element_kind(A32, e, "factor")
        assert is_element_kind(A32, e, "central")
        for i in (1, 2, 3):
            assert is_element_kind(A32, e, "semicentral", i=i)


def test_factor_fails_on_mutated_table():
    tab = core.table_of_power(core.power_algebra(2, 2))
    e = tab.size - 1
    bad = tab.mutate((e, 0, 0), 1)  # break D2/D1 for q(e, -, -)
    assert is_element_kind(tab, e, "factor")
    assert not is_element_kind(bad, e, "factor")


def test_factor_congruences_of_constant():
    # e = e_1: t_1(e_1, a, b) = b, so phi is the diagonal
    phi, phibar = factor_congruences_of(A32, A32.index(A32.constant(1)), i=1)
    assert phi.is_diagonal
    assert phibar.is_total


def test_factor_congruences_of_generic_element():
    e = A32.index((1, 2))
    phi, phibar = factor_congruences_of(A32, e, i=1)
    assert phi.num_blocks == 3 and phibar.num_blocks == 3
    # phi relates elements agreeing at the first point
    for a, b in itertools.product(range(9), repeat=2):
        ea, eb = A32.elements()[a], A32.elements()[b]
        assert phi.related(a, b) == (ea[0] == eb[0])
        assert phibar.related(a, b) == (ea[1] == eb[1])
    # complementary pair: meet is the diagonal, join the total relation
    inter = [
        phi.blocks[a] == phi.blocks[b] and phibar.blocks[a] == phibar.blocks[b]
        for a, b in itertools.product(range(9), repeat=2)
    ]
    assert sum(inter) == 9  # only the diagonal
    assert phi.is_compatible() and phibar.is_compatible()


def test_boolean_center_structure():
    bc = boolean_center(A32, CenterParams(1, 2))
    members = {A32.elements()[a] for a in bc.members}
    assert members == {(1, 1), (1, 2), (2, 1), (2, 2)}
    assert bc.table.zero == bc.local(A32.index((1, 1)))
    assert bc.table.one == bc.local(A32.index((2, 2)))
    assert len(bc.atoms()) == 2
    assert check_axioms(bc.table, "BOOLEAN").ok


def test_boolean_center_negation():
    bc = boolean_center(A32, CenterParams(1, 2))
    neg = bc.table.neg
    assert int(neg[bc.table.zero]) == bc.table.one
    for a in range(bc.size):
        assert int(neg[int(neg[a])]) == a


def test_church_reduct_shape():
    ch = reduct(A32, "church", i=1, d={1, 3}, j=2)
    assert ch.zero == A32.index(A32.constant(1))
    assert ch.one == A32.index(A32.constant(2))
    assert ch.q3.shape == (9, 9, 9)
    with pytest.raises(ValueError):
        reduct(A32, "church", i=2, d={1, 3}, j=2)


def test_boolean_center_tables_match_a_loop_over_the_members():
    for alg, cp in ((A32, CenterParams(1, 2)), (A32, CenterParams(3, 1)),
                    (core.power_algebra(2, 3), CenterParams(2, 1)),
                    (core.table_of_power(core.power_algebra(2, 3)), CenterParams(1, 2))):
        bc = boolean_center(alg, cp)
        sk = reduct(alg, "skew", i=cp.i)
        ej = alg.constant_index(cp.j)
        members = [a for a in range(alg.size) if sk.meet[a, ej] == a]
        assert list(bc.members) == members
        for ta, a in enumerate(members):
            assert members[bc.table.neg[ta]] == sk.q3[a, sk.zero, ej]
            for tb, b in enumerate(members):
                assert members[bc.table.meet[ta, tb]] == sk.meet[a, b]
                assert members[bc.table.join[ta, tb]] == sk.join[a, b]
        assert members[bc.table.zero] == sk.zero and members[bc.table.one] == ej


def test_boolean_center_not_closed_raises_value_error():
    bad = core.table_of_power(core.power_algebra(2, 3)).mutate((5, 0, 7), 2)
    with pytest.raises(ValueError, match=r"not closed under join: join\(#1, #4\) = #5"):
        boolean_center(bad, CenterParams(1, 2))


def test_is_element_kind_checks_its_element():
    A23 = core.power_algebra(2, 3)
    e = A23.index((1, 2, 1))
    assert is_element_kind(A23, np.int64(e), "factor") == is_element_kind(A23, e, "factor")
    assert is_element_kind(A23, np.int64(e), "central")
    for bad in (-1, 8):
        with pytest.raises(ValueError, match="out of 0..7"):
            is_element_kind(A23, bad, "factor")


def test_factor_congruences_of_checks_its_element():
    A23 = core.power_algebra(2, 3)
    e = A23.index((1, 2, 1))
    got = factor_congruences_of(A23, np.int64(e), 1)
    assert [c.blocks for c in got] == [c.blocks for c in factor_congruences_of(A23, (1, 2, 1), 1)]
    for bad in (-1, 8):
        with pytest.raises(ValueError, match="out of 0..7"):
            factor_congruences_of(A23, bad, 1)


def test_audits_label_only_their_counterexamples(monkeypatch):
    calls = []
    for cls in (core.PowerAlgebra, core.TableAlgebra):
        label = cls.element_label
        monkeypatch.setattr(cls, "element_label",
                            lambda self, i, label=label: calls.append(i) or label(self, i))
    A23 = core.power_algebra(2, 3)
    assert check_axioms(A23, "NBA").ok and is_element_kind(A23, (1, 2, 1), "central")
    assert calls == []
    rep = check_axioms(core.table_of_power(A23).mutate((1, 0, 2), 3), "NBA")
    failed = [a.counterexample for a in rep.axioms if not a.ok]
    assert failed and len(calls) == sum(map(len, failed))
