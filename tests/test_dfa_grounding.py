import itertools
import random

import pytest

from lifeguard import dfa as D, grounding
from lifeguard.grounding import (
    GroundingError,
    compile_spec,
    ground_spec,
    letter_map,
)
from lifeguard.messages import (
    FALSE,
    Message,
    Trace,
    format_message,
    value_type_name,
    values_of_message,
)
from lifeguard.rules import (
    MAny,
    MAtom,
    MConcat,
    MEmpty,
    MEps,
    MIntersect,
    MNegate,
    MStar,
    MUnion,
    free_vars,
    parse_spec,
    rule_annotations,
)

from reference_engine import accepts, matches


def ci(name, *args):
    return Message("ci", name, tuple(args))


def trace_values(trace):
    """The trace's values, including return positions: per object type its
    object identities, and the set of primitive constants."""
    by_type, constants = {}, set()
    for m in trace.messages:
        for v in values_of_message(m):
            ty = value_type_name(v)
            (constants if ty is None else by_type.setdefault(ty, set())).add(v)
    return by_type, constants


# ---------------------------------------------------------------------------
# Brute-force language oracle: the set of accepted words up to a length
# bound, computed directly from the matcher semantics with length-bucketed
# sets so concatenation stays exact for the bounded universe.


def brute_language(matcher, letters, max_len):
    universe = {
        w for k in range(max_len + 1) for w in itertools.product(letters, repeat=k)
    }

    def lang(m):
        if isinstance(m, MAtom):
            msg = m.message
            return {(msg,)} if msg in letters else set()
        if isinstance(m, MAny):
            return {(l,) for l in letters}
        if isinstance(m, MEps):
            return {()}
        if isinstance(m, MEmpty):
            return set()
        if isinstance(m, MConcat):
            left, right = lang(m.left), lang(m.right)
            out = set()
            for w1 in left:
                room = max_len - len(w1)
                for w2 in right:
                    if len(w2) <= room:
                        out.add(w1 + w2)
            return out
        if isinstance(m, MUnion):
            return lang(m.left) | lang(m.right)
        if isinstance(m, MIntersect):
            return lang(m.left) & lang(m.right)
        if isinstance(m, MNegate):
            return universe - lang(m.inner)
        if isinstance(m, MStar):
            base = lang(m.inner)
            out = {()}
            frontier = {()}
            while frontier:
                new = set()
                for w in frontier:
                    room = max_len - len(w)
                    for piece in base:
                        if 0 < len(piece) <= room:
                            cand = w + piece
                            if cand not in out:
                                new.add(cand)
                out |= new
                frontier = new
            return out
        raise TypeError(type(m).__name__)

    return lang(matcher), universe


LETTERS = (ci("f"), ci("g"), ci("h"))
A, B, C = (MAtom(m) for m in LETTERS)


def compile_matcher(matcher, letters):
    letter_of = {m: i for i, m in enumerate(letters)}
    regex = D.build_dfa(_translate(matcher, letter_of), n_letters=len(letters) + 1)
    return regex, letter_of


def _translate(matcher, letter_of):
    from lifeguard.grounding import _translate as translate

    return translate(matcher, letter_of.__getitem__)


OPERATOR_COVERAGE = [
    MEps(),
    A,
    MConcat(MStar(MAny()), A),              # suffix trigger
    MConcat(A, MStar(MAny())),              # prefix trigger
    MStar(MUnion(A, B)),
    MStar(MConcat(A, B)),
    MNegate(MConcat(MStar(MAny()), A)),     # complement of a suffix
    MIntersect(MConcat(MStar(MAny()), A), MConcat(B, MStar(MAny()))),
    MIntersect(MNegate(MEps()), MEps()),    # contradiction: empty language
    MNegate(MEmpty()),                      # universal language
    MConcat(MStar(MAny()), MConcat(A, MStar(MAny()))),            # contains A
    MNegate(MConcat(MStar(MAny()), MConcat(A, MStar(MAny())))),   # avoids A
    MConcat(A, MEps()),                     # eps on the right is dropped
    MStar(MEps()),                          # the star of eps is eps
    MStar(MEmpty()),                        # ... and so is the star of empty
    MStar(MStar(A)),                        # a star of a star is the star
    MNegate(MNegate(A)),                    # a double complement cancels
]


class TestDfaMatcherEquivalence:
    @pytest.mark.parametrize("matcher", OPERATOR_COVERAGE, ids=lambda m: str(m))
    def test_dfa_equals_brute_force_language_up_to_8(self, matcher):
        accepted, universe = brute_language(matcher, LETTERS, max_len=8)
        auto, letter_of = compile_matcher(matcher, LETTERS)
        for word in universe:
            expected = word in accepted
            got = accepts(auto, (letter_of[m] for m in word))
            assert got == expected, (str(matcher), [str(m) for m in word])

    @pytest.mark.parametrize("matcher", OPERATOR_COVERAGE, ids=lambda m: str(m))
    def test_dfa_equals_matches_up_to_5_with_other(self, matcher):
        # Words may include an off-alphabet message, exercising the OTHER
        # letter; matches() is the defining semantics.
        other = ci("offworld")
        auto, letter_of = compile_matcher(matcher, LETTERS)
        other_idx = len(LETTERS)
        pool = LETTERS + (other,)
        for k in range(0, 5):
            for word in itertools.product(pool, repeat=k):
                expected = matches(list(word), {}, matcher)
                got = accepts(auto, (letter_of.get(m, other_idx) for m in word))
                assert got == expected, (str(matcher), [str(m) for m in word])

    @pytest.mark.parametrize("matcher", OPERATOR_COVERAGE, ids=lambda m: str(m))
    def test_matcher_text_parses_back(self, matcher):
        # Concatenation prints without parentheses and parses left-nested,
        # so the text, not the tree, is what the round trip keeps.
        assert str(parse_spec(f"{matcher} -> ci g()").rules[0].matcher) == str(matcher)

    def test_eps_dfa_is_two_states(self):
        auto, _ = compile_matcher(MEps(), LETTERS)
        assert auto.n_states == 2
        assert accepts(auto, [])
        assert not accepts(auto, [0])

    def test_contradiction_is_empty(self):
        auto, letter_of = compile_matcher(MIntersect(MNegate(MEps()), MEps()), LETTERS)
        assert not accepts(auto, [])
        for k in range(3):
            for word in itertools.product(range(len(LETTERS) + 1), repeat=k):
                assert not accepts(auto, word)

    def test_suffix_rule_dfa_accepts_exactly_words_ending_in_letter(self):
        matcher = MConcat(MStar(MAny()), A)
        auto, letter_of = compile_matcher(matcher, LETTERS)
        for k in range(0, 7):
            for word in itertools.product(range(len(LETTERS)), repeat=k):
                assert accepts(auto, word) == (bool(word) and word[-1] == 0)


class TestCanonicalForm:
    # build_dfa terminates only because derivatives that differ by the
    # order, nesting or repetition of + and & items compare equal.
    def test_or_and_ignore_order_nesting_and_duplicates(self):
        a, b, c = D.RSym(0), D.RSym(1), D.mk_star(D.RSym(2))
        for mk, node in ((D.mk_or, D.ROr), (D.mk_and, D.RAnd)):
            flat = mk((a, b, c))
            assert isinstance(flat, node) and flat.items == {a, b, c}
            for variant in (mk((c, b, a)), mk((mk((b, a)), c)),
                            mk((a, mk((c, mk((b, a)))), b, a))):
                assert variant == flat and hash(variant) == hash(flat)
            assert mk((a, a)) == mk((a,)) == a

    def test_units_and_absorbers(self):
        a, b = D.RSym(0), D.RSym(1)
        assert D.mk_or(()) == D.EMPTY
        assert D.mk_or((a, D.EMPTY)) == a
        assert D.mk_or((a, D.mk_or((b, D.UNIVERSAL)))) == D.UNIVERSAL
        assert D.mk_and(()) == D.UNIVERSAL
        assert D.mk_and((a, D.UNIVERSAL)) == a
        assert D.mk_and((a, D.mk_and((b, D.EMPTY)))) == D.EMPTY


class TestGroundSpec:
    def test_rule_instance_counts_on_fixed(self, spec_run, trace_fixed):
        g = ground_spec(spec_run, trace_fixed)
        # one AsyncTask; one Button x one OnClickListener
        assert g.instance_counts[0] == 1
        assert g.instance_counts[2] == 1
        by_source = {}
        for r in g.rules:
            by_source.setdefault(r.source_index, []).append(r)
        assert len(by_source[0]) == 1
        assert len(by_source[2]) == 1

    def test_empty_trace_keeps_only_variable_free_rules(self, spec_run):
        g = ground_spec(spec_run, Trace(()))
        assert g.rules == ()
        ground_free = ground_spec(parse_spec("eps -/> ci execute(t#1:AsyncTask)"), Trace(()))
        assert len(ground_free.rules) == 1

    def test_alphabet_closed_under_rule_targets(self, spec_run, trace_fixed):
        g = ground_spec(spec_run, trace_fixed)
        for r in g.rules:
            assert r.target in g.alphabet

    def test_no_symbolic_leftovers(self, spec_run, trace_fixed):
        from lifeguard.rules import matcher_atoms, message_vars
        from reference_engine import laid_out

        g = ground_spec(spec_run, trace_fixed)
        for r in g.rules:
            for atom in matcher_atoms(r.matcher):
                assert not message_vars(atom)

    def test_blowup_guard_names_worst_rule(self, spec_run, trace_fixed, monkeypatch):
        monkeypatch.setattr(grounding, "DEFAULT_INSTANTIATION_CAP", 3)
        with pytest.raises(GroundingError, match="cap"):
            ground_spec(spec_run, trace_fixed)

    def test_deterministic(self, spec_run, trace_fixed):
        assert ground_spec(spec_run, trace_fixed) == ground_spec(spec_run, trace_fixed)

    def test_alphabet_order(self, spec_run, trace_fixed):
        # Letter numbers, and with them explain's store deltas, follow this
        # order: kind first, then function name, arguments and return.
        assert [format_message(m) for m in ground_spec(spec_run, trace_fixed).alphabet] == [
            "cb onClick(l#1:OnClickListener,b#1:Button)",
            "cb onCreate(a#1:Activity)",
            "cb onPostExecute(t#1:AsyncTask)",
            "ci execute(t#1:AsyncTask)",
            "ci finish(a#1:Activity)",
            "ci init(t#1:AsyncTask)",
            "ci setEnabled(b#1:Button,false)",
            "ci setOnClickListener(b#1:Button,l#1:OnClickListener)",
            "cbret unit = onClick(l#1:OnClickListener,b#1:Button)",
            "cbret unit = onCreate(a#1:Activity)",
            "cbret unit = onPostExecute(t#1:AsyncTask)",
            "ciret unit = execute(t#1:AsyncTask)",
            "ciret unit = finish(a#1:Activity)",
            "ciret unit = init(t#1:AsyncTask)",
            "ciret unit = setEnabled(b#1:Button,false)",
            "ciret unit = setOnClickListener(b#1:Button,l#1:OnClickListener)",
        ]

    def test_grounding_soundness_on_fixture_prefixes(self, spec_run, trace_fixed):
        # Symbolic firing (exists a binding over the universe) coincides
        # with some ground instance firing, on every prefix.
        g = ground_spec(spec_run, trace_fixed)
        by_type, constants = trace_values(trace_fixed)
        every_value = set(constants).union(*by_type.values())
        for cut in range(len(trace_fixed) + 1):
            prefix = list(trace_fixed.messages[:cut])
            for idx, rule in enumerate(spec_run.rules):
                annotations = rule_annotations(rule)
                names = sorted(free_vars(rule))
                domains = [by_type.get(annotations[n], ()) if annotations.get(n) else every_value
                           for n in names]
                symbolic = set()
                for assignment in itertools.product(*domains):
                    binding = dict(zip(names, assignment))
                    if matches(prefix, binding, rule.matcher):
                        from lifeguard.rules import apply_binding

                        symbolic.add(apply_binding(binding, rule.target))
                ground_fired = {
                    r.target
                    for r in g.rules
                    if r.source_index == idx and matches(prefix, {}, r.matcher)
                }
                assert symbolic == ground_fired, (cut, idx)


class TestCompiledRules:
    def test_dfa_oracle_equivalence_per_rule(self, spec_run, trace_fixed):
        # Every compiled rule agrees with matches() on short words over its
        # own atoms plus one alphabet message that is not among them.
        from lifeguard.rules import matcher_atoms
        from reference_engine import laid_out

        g = ground_spec(spec_run, trace_fixed)
        letter_of = letter_map(g.alphabet)
        compiled = compile_spec(g, letter_of)
        rng = random.Random(5)
        for cr, gr in zip(compiled, g.rules):
            atoms = list(dict.fromkeys(matcher_atoms(gr.matcher)))
            pool = atoms + [next(m for m in g.alphabet if m not in atoms)]
            for k in range(0, 5):
                for _ in range(20):
                    word = [rng.choice(pool) for _ in range(k)]
                    expected = matches(word, {}, gr.matcher)
                    got = accepts(laid_out(cr, len(g.alphabet) + 1),
                                  (letter_of[m] for m in word))
                    assert got == expected

    def test_repeat_compiles_agree_and_dfa_keeps_no_memo(self, spec_run, trace_fixed):
        def held_by_module():
            return {name: len(v) for name, v in vars(D).items()
                    if isinstance(v, (dict, list, set))}

        g = ground_spec(spec_run, trace_fixed)
        before = held_by_module()
        first = compile_spec(g, letter_map(g.alphabet))
        assert held_by_module() == before
        assert compile_spec(g, letter_map(g.alphabet)) == first
        assert not any(hasattr(v, "cache_info") for v in vars(D).values())

    def test_dfa_total(self, spec_run, trace_fixed):
        g = ground_spec(spec_run, trace_fixed)
        for cr in compile_spec(g, letter_map(g.alphabet)):
            assert cr.dfa.n_letters == len(cr.columns) + 1
            assert len(set(cr.columns)) == len(cr.columns)
            assert all(0 <= c < len(g.alphabet) for c in cr.columns)
            for row in cr.dfa.transitions:
                assert len(row) == cr.dfa.n_letters
                assert all(0 <= s < cr.dfa.n_states for s in row)

    def test_instances_share_one_dfa_per_shape(self, spec_run):
        import tracemalloc

        from pairs import pair_trace

        g = ground_spec(spec_run, pair_trace(16))
        tracemalloc.start()
        try:
            compiled = compile_spec(g, letter_map(g.alphabet))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(compiled) == 817
        assert len({id(cr.dfa) for cr in compiled}) == 2
        assert held < 1_000_000


class TestRuleLiteralsVsUniverse:
    def test_rule_literal_in_alphabet_but_not_universe(self, spec_run, trace_buggy):
        # trace_buggy has no setEnabled message, so the literal `false`
        # occurs only inside rule (3); it must reach the alphabet through
        # the ground atom without entering the value universe.
        assert FALSE not in trace_values(trace_buggy)[1]
        g = ground_spec(spec_run, trace_buggy)
        set_enabled = [m for m in g.alphabet if m.fun == "setEnabled"]
        assert len(set_enabled) == 1
        assert FALSE in set_enabled[0].args


class TestLongWordSampling:
    def test_dfa_equals_matches_on_words_up_to_20(self):
        # Random sampling at lengths the exhaustive sweeps cannot reach.
        rng = random.Random(41)
        for matcher in OPERATOR_COVERAGE:
            auto, letter_of = compile_matcher(matcher, LETTERS)
            for _ in range(25):
                k = rng.randint(0, 20)
                word = [rng.choice(LETTERS) for _ in range(k)]
                assert accepts(auto, (letter_of[m] for m in word)) == \
                    matches(word, {}, matcher), (str(matcher), k)
