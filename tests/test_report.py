"""The check protocol of report.check: a check takes its context first and
N last, returns its first witness as a dict or None, and the decorator
builds the Report."""

from types import SimpleNamespace

from heisdouble.report import Report, check

CONTEXT = SimpleNamespace(name="ctx")


@check
def sample_check(context, extra, N):
    """Fails with a witness whose values are not strings when extra is."""
    if extra is None:
        return None
    return {"zeta": extra, "alpha": (1, 2), "degree": N}


def test_a_witness_gives_a_failing_report():
    rep = sample_check(CONTEXT, 7, 3)
    assert rep == Report("sample_check", "ctx", 3, "fail",
                         {"zeta": "7", "alpha": "(1, 2)", "degree": "3"})
    assert not rep.passed
    # the values are str()-ed in the order the check gave them
    assert list(rep.witness) == ["zeta", "alpha", "degree"]
    assert str(rep) == "sample_check[ctx, N=3]: fail (zeta=7, alpha=(1, 2), degree=3)"


def test_none_gives_a_passing_report():
    rep = sample_check(CONTEXT, None, 5)
    assert rep == Report("sample_check", "ctx", 5, "pass")
    assert rep.passed and rep.witness is None
    assert rep.to_json() == {"check": "sample_check", "instance": "ctx", "N": 5,
                             "status": "pass"}


def test_the_report_takes_its_instance_from_the_first_argument_and_n_from_the_last():
    rep = sample_check(SimpleNamespace(name="other"), None, 2)
    assert (rep.instance, rep.N) == ("other", 2)


def test_the_decorated_check_keeps_its_name_and_the_undecorated_function():
    assert sample_check.__name__ == "sample_check"
    assert sample_check.__doc__.startswith("Fails with a witness")
    assert sample_check.__wrapped__(CONTEXT, 7, 3) == {"zeta": 7, "alpha": (1, 2), "degree": 3}


@check
def keyword_check(context, N, *, flag=False):
    return {"flag": flag}


def test_keyword_arguments_reach_the_check_and_n_stays_the_last_positional():
    rep = keyword_check(CONTEXT, 4, flag=True)
    assert (rep.N, rep.witness) == (4, {"flag": "True"})
    assert keyword_check(CONTEXT, 4).witness == {"flag": "False"}


def test_report_repr_and_field_equality():
    rep = Report("c", "i", 3, "fail", {"a": "b"})
    assert repr(rep) == "Report(check='c', instance='i', N=3, status='fail', witness={'a': 'b'})"
    assert rep == Report("c", "i", 3, "fail", {"a": "b"})
    assert rep != Report("c", "i", 3, "fail", {"a": "c"})
    assert rep != ("c", "i", 3, "fail", {"a": "b"})
