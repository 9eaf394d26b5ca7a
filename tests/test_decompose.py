import g2mcg.decompose
from g2mcg.decompose import (
    CLASSIFICATION,
    RULES,
    CandidateSplit,
    DecompositionReport,
    _verdict,
    admissible_splits,
)
from g2mcg.fixtures import load_corpus
from g2mcg.invariants import FiberSignature, fiber_signature
from g2mcg.registry import standard_registry

reg = standard_registry()
corpus = load_corpus(reg)


def splits(n, s):
    return admissible_splits(FiberSignature(n, s))


def admissible_pairs(report):
    return sorted(c.signatures for c in report.admissible)


def rejected_pairs(report):
    return {
        c.signatures: tuple(c.first.rejected_by + c.second.rejected_by)
        for c in report.candidates
        if not c.admissible
    }


def test_unique_split_of_26_2():
    r = splits(26, 2)
    assert admissible_pairs(r) == [((20, 0), (6, 2))]
    rej = rejected_pairs(r)
    assert "no-10-0" in rej[((10, 0), (16, 2))]
    assert "no-8-1" in rej[((8, 1), (18, 1))]
    assert r.summary == "Unique"


def test_30_0_has_no_split():
    r = splits(30, 0)
    assert admissible_pairs(r) == []
    assert rejected_pairs(r) == {((10, 0), (20, 0)): ("no-10-0",)}
    assert r.summary == "None"


def test_12_4_unique_candidate():
    r = splits(12, 4)
    assert admissible_pairs(r) == [((6, 2), (6, 2))]
    rej = rejected_pairs(r)
    assert set(rej[((10, 0), (2, 4))]) >= {"min-fibers", "no-10-0"}
    assert "no-8-1" in rej[((8, 1), (4, 3))]


def test_brute_force_enumeration_agrees():
    # independent oracle: scan every possible pair, apply the rules directly
    for label in list(corpus.relators):
        sig = fiber_signature(reg, corpus.relators[label])
        expected = set()
        for s1 in range(sig.s + 1):
            for n1 in range(sig.n + 1):
                n2, s2 = sig.n - n1, sig.s - s1
                if (n1, s1) == (0, 0) or (n2, s2) == (0, 0):
                    continue
                if (n1 + 2 * s1) % 10 or (n2 + 2 * s2) % 10:
                    continue
                pair = tuple(sorted([(n1, s1), (n2, s2)], key=lambda p: (p[1], p[0])))
                if all(
                    not any(r.rejects(FiberSignature(*half)) for r in RULES)
                    for half in pair
                ):
                    expected.add(pair)
        got = {
            tuple(sorted(c.signatures, key=lambda p: (p[1], p[0])))
            for c in admissible_splits(sig).admissible
        }
        assert got == expected, label


def _ref_admissible_splits(sig):
    """The earlier enumeration: every split, swapped into canonical order,
    deduplicated, then sorted."""
    report = DecompositionReport(sig)
    seen = set()
    for s1 in range(sig.s + 1):
        for n1 in range(sig.n + 1):
            a = FiberSignature(n1, s1)
            b = FiberSignature(sig.n - n1, sig.s - s1)
            if a.total == 0 or b.total == 0:
                continue
            if a.mod_ten != 0 or b.mod_ten != 0:
                continue
            if (b.s, b.n) < (a.s, a.n):
                a, b = b, a
            key = ((a.n, a.s), (b.n, b.s))
            if key in seen:
                continue
            seen.add(key)
            report.candidates.append(CandidateSplit(_verdict(a), _verdict(b)))
    report.candidates.sort(key=lambda c: (c.first.signature.s, c.first.signature.n))
    return report


def test_enumeration_matches_the_reference_on_a_wide_grid():
    # wider than the 41 x 21 grid of the decompose-sweep benchmark
    for n in range(61):
        for s in range(31):
            sig = FiberSignature(n, s)
            new, ref = admissible_splits(sig), _ref_admissible_splits(sig)
            assert new.render() == ref.render(), (n, s)
            assert new.records() == ref.records(), (n, s)


def test_summand_mod_ten_always_holds():
    for n, s in [(26, 2), (18, 6), (12, 4), (24, 3)]:
        for c in admissible_splits(FiberSignature(n, s)).candidates:
            for v in (c.first, c.second):
                assert v.signature.mod_ten == 0
            (n1, s1), (n2, s2) = c.signatures
            assert (n1 + n2, s1 + s2) == (n, s)


def test_summands_are_built_only_for_listed_candidates(monkeypatch):
    built = []

    class Counted(FiberSignature):
        __slots__ = ()

        def __new__(cls, n, s):
            built.append((n, s))
            return super().__new__(cls, n, s)

    monkeypatch.setattr(g2mcg.decompose, "FiberSignature", Counted)
    # a full (n+1) x (s/2+1) box would build 902, 108, 152 and 112
    for (n, s), count in {(40, 20): 88, (26, 2): 6, (18, 6): 12, (27, 2): 0}.items():
        built.clear()
        report = admissible_splits(FiberSignature(n, s))
        assert len(built) == 2 * len(report.candidates) == count, (n, s)


def test_classification_lookups():
    assert CLASSIFICATION[(20, 0)].strength == "Diffeo"
    assert CLASSIFICATION[(20, 0)].label == "1 CP2 # 13 CP2bar"
    assert (40, 0) not in CLASSIFICATION


def test_corpus_case_analyses():
    reports = {
        label: admissible_splits(fiber_signature(reg, corpus.relators[label]))
        for label in ["X0", "X1", "X2", "X3", "X4", "X5", "X6", "Z0", "Z1", "Z2", "Z3", "Z4"]
    }

    def pairs(label):
        return {frozenset(c.signatures) for c in reports[label].admissible}

    assert pairs("X2") == {frozenset({(6, 2), (20, 0)})}
    assert pairs("X3") == {frozenset({(4, 3), (20, 0)}), frozenset({(6, 2), (18, 1)})}
    assert pairs("X4") == {frozenset({(4, 3), (18, 1)}), frozenset({(6, 2), (16, 2)})}
    assert pairs("X5") == {frozenset({(4, 3), (16, 2)}), frozenset({(6, 2), (14, 3)})}
    assert pairs("X6") == {frozenset({(4, 3), (14, 3)}), frozenset({(6, 2), (12, 4)})}
    assert pairs("Z4") == {frozenset({(6, 2)})}
    for label in ["X0", "X1", "Z0", "Z1", "Z2", "Z3"]:
        assert reports[label].summary == "None", label


def test_x4_has_one_homeo_strength_summand():
    r = splits(22, 4)
    strengths = set()
    for c in r.admissible:
        for v in (c.first, c.second):
            if v.entry:
                strengths.add((v.signature.n, v.signature.s, v.entry.strength))
    assert (16, 2, "Homeo") in strengths
    assert (6, 2, "Diffeo") in strengths


def test_rejections_cite_sources():
    for rule in RULES:
        assert rule.citation
    for entry in CLASSIFICATION.values():
        assert entry.citation


def test_render_mentions_minimality_assumption():
    text = splits(26, 2).render()
    assert "relatively minimal" in text
    assert "summary: Unique" in text
    recs = splits(26, 2).records()
    assert "admissible" in recs


def test_trivial_input_has_no_splits():
    assert splits(0, 0).candidates == []
