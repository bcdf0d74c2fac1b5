"""The session front end: the normal form of each text, generator elements
and label texts are cached, and the caches change no printed byte.

Covers the pair and antipode CLI answers on qheis A2 (tests/golden/, using
h and h'), answers repeated on one instance and on a fresh one, and the
rules of each cache: what its key is, that it never holds a failure, and
what drops or does not share it.
"""

import gc
import importlib.util
import weakref
from pathlib import Path

import pytest

from heisdouble import cli, expr
from heisdouble.double import fock_matrix
from heisdouble.expr import (NORMAL_FORM_CACHE_SIZE, ExprEvalError, ExprSyntaxError,
                             evaluate, evaluate_text, parse_expression, pure_minus,
                             pure_plus)
from heisdouble.hopf import BasisLabel, Element, antipode, check_bialgebra, element_str
from heisdouble.instances import (ConfigError, build_lattice, build_qheis, build_weyl,
                                  cartan_a, identity_form, load_instance)

ROOT = Path(__file__).parent.parent
GOLDEN = ROOT / "tests" / "golden"

CASES = [
    ("pair-qheis-a2.txt",
     ["pair", "--expr", "h'[2,1] h'[1,2]", "--expr", "h[1,2] h[2,1]"]),
    ("antipode-qheis-a2.txt", ["antipode", "--expr", "h[2,1] h[1,2]"]),
    ("antipode-minus-qheis-a2.json",
     ["antipode", "--expr", "h'[2,2] h'[1,1]", "--json"]),
]


@pytest.mark.parametrize("expected, argv", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(expected, argv, capsys):
    rc = cli.main(argv + ["--instance", str(GOLDEN / "qheis-a2.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == (GOLDEN / expected).read_text()


# -- repeated answers ----------------------------------------------------


def answers(inst, text):
    """What a session prints about text: its normal form, its antipode when
    it is one-sided, and its Fock matrix on inputs of degree <= 2."""
    D = inst.double
    el = evaluate_text(D, text)
    out = [D.element_str(el)]
    a, x = pure_plus(D, el), pure_minus(D, el)
    if a is not None:
        out.append(element_str(inst.plus, antipode(inst.plus, a)))
    elif x is not None:
        out.append(element_str(inst.minus, antipode(inst.minus, x)))
    rows, cols, matrix = fock_matrix(D, el, 2)
    out.append(" ".join(D.plus.label_text(l) for l in rows + cols))
    out.extend(" ".join(str(v) for v in row) for row in matrix)
    return "\n".join(out)


TEXTS = ["p'[2,1] p[2,2] p'[1,2]", "h'[2,1]*h[1,2]", "h[2,1] h[1,2]",
         "h'[2,2] h'[1,1]", "q^2 p[1,1] - (1 + q)/(1 - q) p'[1,2] + 3"]


def test_repeated_answers_print_the_same_bytes():
    inst = build_qheis(cartan_a(2))
    first = [answers(inst, text) for text in TEXTS]
    assert set(inst.double._normal_forms) == set(TEXTS)
    assert [answers(inst, text) for text in TEXTS] == first
    # a fresh instance starts with an empty memo and computes every answer
    fresh = build_qheis(cartan_a(2))
    assert fresh.double._normal_forms == {}
    assert [answers(fresh, text) for text in TEXTS] == first


def test_repeated_pairings_print_the_same_bytes():
    texts = ("h'[2,1] p'[1,2]", "h[1,2] h[2,1]")
    inst = build_qheis(cartan_a(2))
    values = []
    for target in (inst, inst, build_qheis(cartan_a(2))):
        D = target.double
        x, a = (evaluate_text(D, t) for t in texts)
        values.append(str(target.pairing.pair(pure_minus(D, x), pure_plus(D, a))))
    assert values == [values[0]] * 3


# -- parsed texts --------------------------------------------------------


def test_parse_cache_shares_one_hashable_tree():
    # the parser keeps nothing: the double's memo keeps the evaluated
    # element, and one text gives equal, hashable trees
    text = "p'[1,2] (q^-2 p[1,1] - 3) + h[2,1]/q # p[1,1]^2"
    tree = parse_expression(text)
    assert parse_expression(text) == tree
    assert hash(tree) == hash(parse_expression(text))
    D = build_qheis(cartan_a(2)).double
    text = "p'[1,2] (q^-2 p[1,1] - 3) + q^-1 h[2,1] # p[1,1]^2"
    el = evaluate_text(D, text)
    assert evaluate_text(D, text) is el
    assert D._normal_forms == {text: el}
    assert NORMAL_FORM_CACHE_SIZE == 4096


def test_syntax_errors_are_raised_on_every_call():
    for _ in range(2):
        with pytest.raises(ExprSyntaxError) as e:
            parse_expression("p[1 2]")
        assert e.value.offset == 4


def test_a_cached_tree_is_evaluated_in_each_context():
    # one text, two contexts: whether its names exist is decided per context
    qd, ld = build_qheis(cartan_a(2)).double, build_lattice(identity_form(2)).double
    assert not evaluate_text(qd, "h[1,1] p'[1,2]").is_zero
    for _ in range(2):
        with pytest.raises(ExprEvalError) as e:
            evaluate_text(ld, "h[1,1] p'[1,2]")
        assert e.value.offset == 0


# -- the normal-form memo ------------------------------------------------


def bench_pool(config):
    """The benchmark's session module and its query pool for config."""
    spec = importlib.util.spec_from_file_location("bench_session",
                                                  ROOT / "bench" / "session.py")
    session = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(session)
    kind, ncolors = {"qheis-a2": ("qheis", 2), "lattice-i2": ("lattice", 2)}[config]
    return session, session.pool(kind, ncolors)


def bench_texts(config, count=50):
    """count texts spread over the benchmark session's query pool for
    config, every query kind included, each once."""
    session, groups = bench_pool(config)
    texts = list(dict.fromkeys(e for name, _ in session.MIX
                               for q in groups[name] for e in q.exprs))
    step = len(texts) / count
    return [texts[int(i * step)] for i in range(count)]


def bench_instance(config):
    return load_instance(str(ROOT / "bench" / "configs" / (config + ".json")))


@pytest.mark.parametrize("config", ["qheis-a2", "lattice-i2"])
def test_memo_hit_miss_and_fresh_instance_print_the_same_bytes(config):
    texts = bench_texts(config)
    assert len(set(texts)) == 50
    D, F = bench_instance(config).double, bench_instance(config).double
    for text in texts:
        miss = evaluate_text(D, text)
        printed = D.element_str(miss)
        hit = evaluate_text(D, text)
        assert hit is miss
        assert D.element_str(hit) == printed
        assert F.element_str(evaluate_text(F, text)) == printed
    assert list(D._normal_forms) == texts


def test_failures_are_never_memoised():
    D = build_weyl().double
    for _ in range(3):
        with pytest.raises(ExprEvalError) as e:
            evaluate_text(D, "x zz")
        assert e.value.offset == 2
        with pytest.raises(ExprSyntaxError) as e:
            evaluate_text(D, "x + (d")
        assert e.value.offset == 6
    assert D._normal_forms == {}


def test_register_generator_clears_the_memo():
    D = build_weyl().double
    before = evaluate_text(D, "d x")
    evaluate_text(D, "x")
    D.register_generator("x", _x_squared)
    assert D._normal_forms == {}
    # the memo answers with the new generator, not the one it replaced
    assert evaluate_text(D, "x") == D.embed_plus(_x_squared(())[1])
    assert evaluate_text(D, "d x") != before


def test_shifted_double_shares_no_memo():
    D = build_weyl().double
    texts = ["d x", "d^2 x^2 + q x"]
    elements = [evaluate_text(D, t) for t in texts]
    S = D.shifted(0)
    assert S._normal_forms == {}
    for text, el in zip(texts, elements):
        got = evaluate_text(S, text)
        assert got is not el
        assert S.element_str(got) == D.element_str(el)
    assert all(S._normal_forms[t] is not D._normal_forms[t] for t in texts)


def test_eviction_drops_the_oldest_text_and_recomputes_it(monkeypatch):
    monkeypatch.setattr(expr, "NORMAL_FORM_CACHE_SIZE", 3)
    D = build_weyl().double
    texts = ["d x", "d^2 x", "d x^2", "d^2 x^2", "x d + q"]
    first = {t: D.element_str(evaluate_text(D, t)) for t in texts}
    assert list(D._normal_forms) == texts[-3:]
    again = evaluate_text(D, texts[0])
    assert D.element_str(again) == first[texts[0]]
    assert again == evaluate(build_weyl().double, parse_expression(texts[0]))
    assert list(D._normal_forms) == texts[-2:] + texts[:1]


def test_a_dropped_double_frees_its_memo():
    D = build_qheis(cartan_a(2)).double
    for text in TEXTS:
        evaluate_text(D, text)
    ref = weakref.ref(D)
    del D
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("config", ["qheis-a2", "lattice-i2"])
def test_answers_leave_the_memo_elements_unchanged(config):
    # every answer of the benchmark session and of this module reads the
    # shared element and writes nothing into it
    session, groups = bench_pool(config)
    inst = bench_instance(config)
    D = inst.double
    for name, _ in session.MIX:
        for q in groups[name][:10]:
            session.answer(inst, q)
            session.answer(inst, q)
    for text in bench_texts(config, 20):
        answers(inst, text)
    assert len(D._normal_forms) > 40
    fresh = bench_instance(config).double
    for text, el in D._normal_forms.items():
        assert el == evaluate(fresh, parse_expression(text))


# -- generator elements --------------------------------------------------


def test_generator_element_cached_for_list_and_tuple_args():
    # a list and a tuple of the same args build equal elements
    D = build_qheis(cartan_a(2)).double
    p = D.generator_element("p", (2, 1))
    assert D.generator_element("p", [2, 1]) == p
    assert D.generator_element("h'", [2, 2]) == D.generator_element("h'", (2, 2))
    assert D.generator_element("p", (2, 2)) != p


def test_generator_failures_raise_on_every_call():
    D = build_qheis(cartan_a(2)).double
    for _ in range(2):
        with pytest.raises(KeyError):
            D.generator_element("zz", (1, 1))
        with pytest.raises(ConfigError):
            D.generator_element("p", (1, 3))
        with pytest.raises(ExprEvalError) as e:
            evaluate_text(D, "q p[1,3]")
        assert e.value.offset == 2


def _x_squared(args):
    return "plus", Element.from_label(BasisLabel(2, 2))


def test_register_generator_drops_that_names_elements():
    # the new builder answers for x at once; d keeps its builder
    D = build_weyl().double
    d = D.generator_element("d")
    x = D.generator_element("x")
    D.register_generator("x", _x_squared)
    assert D.generator_element("x") == D.embed_plus(_x_squared(())[1])
    assert D.generator_element("x") != x
    assert D.generator_element("d") == d


def test_shifted_double_has_its_own_generator_cache():
    # a shifted double copies the builders: registering on it leaves the
    # original's x as it was
    D = build_weyl().double
    x = D.generator_element("x")
    S = D.shifted(1)
    assert S.generator_element("x") == x
    S.register_generator("x", _x_squared)
    assert S.generator_element("x") != x
    assert D.generator_element("x") == x


# -- label texts and sort keys -------------------------------------------


def test_cached_label_text_and_sort_key_match_a_fresh_presentation():
    H = build_qheis(cartan_a(2)).minus
    fresh = build_qheis(cartan_a(2)).minus
    labels = H.labels_up_to(4)
    for l in labels:
        H.label_text(l), H.label_sort_key(l)
    for l in labels:
        # a label built again from its key and degree is the basis object
        assert BasisLabel(l.key, l.degree) is l
        assert H.label_text(l) == fresh.label_text(l)
        assert H.label_sort_key(l) == fresh.label_sort_key(l)


def test_label_texts_are_made_once_and_only_when_printed():
    inst = build_lattice(identity_form(2))
    H = inst.plus
    made = []
    text_fn = H._label_text_fn
    H._label_text_fn = lambda l: made.append(l) or text_fn(l)
    assert check_bialgebra(H, 3).passed
    assert made == []
    el = evaluate_text(inst.double, "p[1,1] p[2,2] + 2 p[1,1] - p[3,1]")
    text = inst.double.element_str(el)
    assert sorted(map(text_fn, made)) == ["p[1,1]", "p[1,1]*p[2,2]", "p[3,1]"]
    assert inst.double.element_str(el) == text
    assert len(made) == 3
